// Names for profile frames the profiler could not symbolize.
//
// dladdr sees only the dynamic symbol table, so samples in lambdas,
// file-local functions and thread entry points keep a `binary+0xoffset`
// frame; on pool workers that is often every ppatc frame of the stack, which
// would leave the sample's layer unknown. ppatc_bench knows which binaries it
// ran, so it reads their full ELF symbol tables and names those frames.
#include <cxxabi.h>
#include <elf.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>

#include "e2e.hpp"

namespace e2e {

namespace {

struct Symbol {
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
  std::string name;
};

template <class T>
bool read_at(const std::vector<char>& file, std::uint64_t offset, T& out) {
  if (offset > file.size() || file.size() - offset < sizeof(T)) return false;
  std::memcpy(&out, file.data() + offset, sizeof(T));
  return true;
}

std::string demangle(const char* name) {
  int status = -1;
  char* dem = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  std::string out = status == 0 && dem != nullptr ? dem : name;
  std::free(dem);
  std::replace(out.begin(), out.end(), ';', ':');  // ';' separates folded frames
  return out;
}

// Function symbols of a 64-bit ELF file's .symtab, sorted by module-relative
// address (the profiler's offsets count from the first loaded page). Empty
// when the file cannot be read or is stripped.
std::vector<Symbol> function_symbols(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  const std::vector<char> file{std::istreambuf_iterator<char>{in}, {}};
  Elf64_Ehdr eh{};
  if (!read_at(file, 0, eh) || std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64) {
    return {};
  }
  std::uint64_t first_page = UINT64_MAX;
  for (unsigned i = 0; i < eh.e_phnum; ++i) {
    Elf64_Phdr ph{};
    if (read_at(file, eh.e_phoff + std::uint64_t{i} * eh.e_phentsize, ph) &&
        ph.p_type == PT_LOAD) {
      first_page = std::min<std::uint64_t>(first_page, ph.p_vaddr & ~std::uint64_t{0xfff});
    }
  }
  if (first_page == UINT64_MAX) return {};
  std::vector<Symbol> out;
  for (unsigned i = 0; i < eh.e_shnum; ++i) {
    Elf64_Shdr symtab{};
    Elf64_Shdr strtab{};
    if (!read_at(file, eh.e_shoff + std::uint64_t{i} * eh.e_shentsize, symtab) ||
        symtab.sh_type != SHT_SYMTAB || symtab.sh_entsize != sizeof(Elf64_Sym) ||
        !read_at(file, eh.e_shoff + std::uint64_t{symtab.sh_link} * eh.e_shentsize, strtab)) {
      continue;
    }
    for (std::uint64_t off = 0; off + sizeof(Elf64_Sym) <= symtab.sh_size;
         off += sizeof(Elf64_Sym)) {
      Elf64_Sym sym{};
      if (!read_at(file, symtab.sh_offset + off, sym)) break;
      const std::uint64_t name_at = strtab.sh_offset + sym.st_name;
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 ||
          sym.st_value < first_page || sym.st_name >= strtab.sh_size || name_at >= file.size()) {
        continue;
      }
      const char* name = file.data() + name_at;
      if (std::memchr(name, '\0', file.size() - name_at) == nullptr) continue;
      out.push_back({sym.st_value - first_page, sym.st_size, demangle(name)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Symbol& a, const Symbol& b) { return a.addr < b.addr; });
  return out;
}

const std::string* lookup(const std::vector<Symbol>& symbols, std::uint64_t offset) {
  auto it = std::upper_bound(symbols.begin(), symbols.end(), offset,
                             [](std::uint64_t v, const Symbol& s) { return v < s.addr; });
  if (it == symbols.begin()) return nullptr;
  --it;
  return offset < it->addr + it->size ? &it->name : nullptr;
}

}  // namespace

void resolve_local_frames(ppatc::obs::FoldedProfile& profile,
                          const std::map<std::string, std::string>& binaries) {
  std::map<std::string, std::vector<Symbol>> tables;
  for (ppatc::obs::FoldedStack& stack : profile.stacks) {
    for (std::size_t i = 1; i < stack.frames.size(); ++i) {
      std::string& frame = stack.frames[i];
      const std::size_t plus = frame.rfind("+0x");
      if (plus == std::string::npos) continue;
      const auto binary = binaries.find(frame.substr(0, plus));
      if (binary == binaries.end()) continue;
      auto table = tables.find(binary->first);
      if (table == tables.end()) {
        table = tables.emplace(binary->first, function_symbols(binary->second)).first;
      }
      const std::string* name =
          lookup(table->second, std::strtoull(frame.c_str() + plus + 3, nullptr, 16));
      if (name != nullptr) frame = *name;
    }
  }
}

}  // namespace e2e
