#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "gen/erdos_renyi.hpp"
#include "io/edge_io.hpp"

namespace remo::test {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(EdgeIo, TextRoundTrip) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 50, .num_edges = 200, .seed = 1});
  const std::string path = temp_path("edges.txt");
  write_edges_text(path, edges);
  EXPECT_EQ(read_edges_text(path), edges);
  std::remove(path.c_str());
}

TEST(EdgeIo, BinaryRoundTrip) {
  EdgeList edges =
      generate_erdos_renyi({.num_vertices = 50, .num_edges = 200, .seed = 2});
  edges.push_back({~VertexId{0} - 1, 0, ~Weight{0}});  // extreme values
  const std::string path = temp_path("edges.bin");
  write_edges_binary(path, edges);
  EXPECT_EQ(read_edges_binary(path), edges);
  std::remove(path.c_str());
}

TEST(EdgeIo, TextDefaultsMissingWeight) {
  const std::string path = temp_path("edges_noweight.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "# comment line\n7 9\n1 2 5\n\n");
  std::fclose(f);
  const EdgeList edges = read_edges_text(path);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{7, 9, kDefaultWeight}));
  EXPECT_EQ(edges[1], (Edge{1, 2, 5}));
  std::remove(path.c_str());
}

TEST(EdgeIo, MissingFileThrows) {
  EXPECT_THROW(read_edges_text("/nonexistent/nope.txt"), std::runtime_error);
  EXPECT_THROW(read_edges_binary("/nonexistent/nope.bin"), std::runtime_error);
}

TEST(EdgeIo, MalformedLineThrows) {
  const std::string path = temp_path("edges_bad.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "garbage here\n");
  std::fclose(f);
  EXPECT_THROW(read_edges_text(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EdgeIo, BinaryTrailingPartialRecordThrows) {
  const std::string path = temp_path("edges_truncated.bin");
  write_edges_binary(path, {{1, 2, 3}, {4, 5, 6}});  // two 20-byte records
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite("partial", 1, 7, f);
  std::fclose(f);
  try {
    read_edges_binary(path);
    ADD_FAILURE() << "a file ending inside a record must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(EdgeIo, EmptyListRoundTrips) {
  const std::string path = temp_path("edges_empty.bin");
  write_edges_binary(path, {});
  EXPECT_TRUE(read_edges_binary(path).empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace remo::test
