// remo-repro-1 — the self-contained fuzz repro file format.
//
// A repro captures everything run_case needs: the seed, every randomized
// config knob, the source vertex, and the full generation-order event
// stream. The format is line-oriented text so repros diff cleanly in
// review and survive being pasted into bug reports:
//
//   remo-repro-1
//   seed 12345
//   algo bfs
//   ranks 4
//   streams 4
//   termination counting
//   coalesce 1
//   batch_size 128
//   ring_capacity 64
//   stream_chunk 16
//   chaos_delay_us 20
//   nbr_cache_filter 1
//   promote_threshold 8
//   schedule_seed 987654321
//   drop_nth_update 0
//   source 17
//   query_observer 1
//   events 3
//   a 17 4 2
//   a 4 9 1
//   d 17 4 2
//
// Event lines are `a|d <src> <dst> <weight>`. `query_observer 1` is the one
// optional line: it records a case found in query-observer mode, whose
// served answers are part of the verdict (RunOptions); without it the case
// replays without the observer. The serialisation is canonical:
// parse(to_text(fc, run)) == (fc, run) and to_text(parse(text)) == text for
// any writer-produced text, so replays are byte-for-byte reproducible
// (docs/TESTING.md, "Repro files").
#pragma once

#include <string>

#include "fuzz/fuzz.hpp"

namespace remo::fuzz {

inline constexpr const char* kReproMagic = "remo-repro-1";

/// Canonical text form of a case and the run options it was found under.
std::string repro_to_text(const FuzzCase& fc, const RunOptions& run = {});

/// Parse a repro. Returns false (and sets `*error` when non-null) on any
/// malformed input: wrong magic, missing/unknown keys, bad event lines, or
/// an event count that disagrees with the header. `*run` (when non-null)
/// receives the recorded run options.
bool repro_from_text(const std::string& text, FuzzCase& out,
                     std::string* error = nullptr, RunOptions* run = nullptr);

/// File convenience wrappers around the text form.
bool write_repro(const std::string& path, const FuzzCase& fc,
                 std::string* error = nullptr, const RunOptions& run = {});
bool read_repro(const std::string& path, FuzzCase& out,
                std::string* error = nullptr, RunOptions* run = nullptr);

}  // namespace remo::fuzz
