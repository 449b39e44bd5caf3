#include "io/edge_io.hpp"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

namespace remo {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_or_throw(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode));
  if (!f) throw std::runtime_error("cannot open " + path);
  return f;
}

#pragma pack(push, 1)
struct BinRecord {
  std::uint64_t src;
  std::uint64_t dst;
  std::uint32_t weight;
};
#pragma pack(pop)
static_assert(sizeof(BinRecord) == 20);

}  // namespace

void write_edges_text(const std::string& path, const EdgeList& edges) {
  FilePtr f = open_or_throw(path, "w");
  std::fprintf(f.get(), "# remo edge list: src dst weight\n");
  for (const Edge& e : edges)
    std::fprintf(f.get(), "%llu %llu %u\n", static_cast<unsigned long long>(e.src),
                 static_cast<unsigned long long>(e.dst), e.weight);
  if (std::ferror(f.get())) throw std::runtime_error("write failed: " + path);
}

EdgeList read_edges_text(const std::string& path) {
  FilePtr f = open_or_throw(path, "r");
  EdgeList edges;
  char line[256];
  while (std::fgets(line, sizeof line, f.get())) {
    if (line[0] == '#' || line[0] == '\n' || line[0] == '\0') continue;
    unsigned long long src = 0, dst = 0;
    unsigned weight = kDefaultWeight;
    const int n = std::sscanf(line, "%llu %llu %u", &src, &dst, &weight);
    if (n < 2) {
      std::string text = line;
      if (!text.empty() && text.back() == '\n') text.pop_back();
      throw std::runtime_error("malformed line in " + path + ": " + text);
    }
    edges.push_back(Edge{src, dst, n >= 3 ? static_cast<Weight>(weight) : kDefaultWeight});
  }
  return edges;
}

void write_edges_binary(const std::string& path, const EdgeList& edges) {
  FilePtr f = open_or_throw(path, "wb");
  for (const Edge& e : edges) {
    const BinRecord rec{e.src, e.dst, e.weight};
    if (std::fwrite(&rec, sizeof rec, 1, f.get()) != 1)
      throw std::runtime_error("write failed: " + path);
  }
}

EdgeList read_edges_binary(const std::string& path) {
  FilePtr f = open_or_throw(path, "rb");
  EdgeList edges;
  BinRecord rec;
  std::size_t got = 0;
  while ((got = std::fread(&rec, 1, sizeof rec, f.get())) == sizeof rec)
    edges.push_back(Edge{rec.src, rec.dst, rec.weight});
  if (std::ferror(f.get())) throw std::runtime_error("read failed: " + path);
  // EOF inside a record sets no error flag; a partial tail means the file
  // was cut short, not that the graph ends there.
  if (got != 0)
    throw std::runtime_error(path + " ends inside a record: " +
                             std::to_string(got) + " stray bytes after " +
                             std::to_string(edges.size()) + " edges");
  return edges;
}

}  // namespace remo
