// Edge-list readers/writers.
//
// The paper's dynamic experiments ingest "[source, destination] pairs from
// disk" (Section V-A). Two formats:
//   * text:   one "src dst [weight]" triple per line, '#' comments
//   * binary: little-endian packed records (u64 src, u64 dst, u32 weight)
#pragma once

#include <string>

#include "graph/edge_list.hpp"

namespace remo {

/// Write/read the text format. Throws std::runtime_error on I/O failure
/// or a malformed line.
void write_edges_text(const std::string& path, const EdgeList& edges);
EdgeList read_edges_text(const std::string& path);

/// Write/read the packed binary format. Throws std::runtime_error on I/O
/// failure or a file that ends inside a record.
void write_edges_binary(const std::string& path, const EdgeList& edges);
EdgeList read_edges_binary(const std::string& path);

}  // namespace remo
