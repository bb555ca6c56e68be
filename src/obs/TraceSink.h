//===- obs/TraceSink.h - JSONL event sinks ----------------------*- C++ -*-===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured trace events for the explorers, validator and adequacy
/// harness. Events are flat: a kind plus scalar fields, serialized as one
/// JSON object per line (JSONL). Tracing is off by default; a sink is
/// selected explicitly or via the `PSEQ_TRACE` environment variable
/// (unset/empty = tracing off, otherwise the output path).
///
/// Emitting sites must guard on `enabled()` (or Telemetry::tracing())
/// before building the field list, so disabled tracing costs one branch.
///
/// JSONL schema (documented in DESIGN.md):
///   {"seq":<n>,"ms":<t>,"ev":"<kind>", <field>...}
/// where `seq` is a per-sink monotonic sequence number and `ms` the wall
/// time since the sink was opened.
///
//===----------------------------------------------------------------------===//

#ifndef PSEQ_OBS_TRACESINK_H
#define PSEQ_OBS_TRACESINK_H

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pseq::obs {

/// Escapes \p S for inclusion in a JSON string literal (quotes, backslash,
/// control characters; non-ASCII bytes pass through, valid for UTF-8).
std::string jsonEscape(std::string_view S);

/// Formats \p V as a JSON number token (non-finite values become null).
std::string jsonNumber(double V);

/// One scalar trace-event field value.
class TraceValue {
public:
  TraceValue(bool B) : K(Kind::Bool), B(B) {}
  /// Any non-bool integral type (avoids long/long long overload ambiguity).
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  TraceValue(T V) {
    if constexpr (std::is_signed_v<T>) {
      K = Kind::Int;
      I = static_cast<int64_t>(V);
    } else {
      K = Kind::UInt;
      U = static_cast<uint64_t>(V);
    }
  }
  TraceValue(double D) : K(Kind::Real), D(D) {}
  TraceValue(const char *S) : K(Kind::Str), S(S) {}
  TraceValue(std::string S) : K(Kind::Str), S(std::move(S)) {}
  TraceValue(std::string_view S) : K(Kind::Str), S(S) {}

  /// Appends the JSON literal for this value to \p Out.
  void append(std::string &Out) const;

private:
  enum class Kind { Bool, Int, UInt, Real, Str };
  Kind K;
  bool B = false;
  int64_t I = 0;
  uint64_t U = 0;
  double D = 0;
  std::string S;
};

/// A named field of a trace event.
struct TraceField {
  std::string Key;
  TraceValue Val;
};

/// Writes one JSON object per event to a file. Tracing off is a null
/// `TraceSink *` (Telemetry::Sink).
class TraceSink {
public:
  explicit TraceSink(const std::string &Path);
  ~TraceSink();

  /// False when the output file could not be opened.
  bool ok() const { return Out.is_open() && Out.good(); }

  /// False when the file never opened: callers skip building fields.
  bool enabled() const { return Out.is_open(); }
  void event(std::string_view Kind, const std::vector<TraceField> &Fields);
  /// Pushes buffered events to stable storage. Called on guard truncation
  /// and before fork-isolated workers may die, so a crashed or cut-short
  /// run never leaves a torn JSONL tail.
  void flush() { Out.flush(); }

private:
  std::ofstream Out;
  uint64_t Seq = 0;
  std::chrono::steady_clock::time_point Opened;
};

/// The `PSEQ_TRACE` contract: returns a JSONL sink writing to the path the
/// variable names, or nullptr when it is unset/empty (tracing off).
std::unique_ptr<TraceSink> traceSinkFromEnv();

/// Resolves the `--trace <path>` flag against `PSEQ_TRACE`: the flag wins,
/// and when both are set to different paths a warning is printed to stderr
/// so the shadowed env var is never silently ignored. An empty \p FlagPath
/// falls back to the env contract. Returns nullptr when tracing is off or
/// the chosen path is not writable (with a warning).
std::unique_ptr<TraceSink> traceSinkFromFlagOrEnv(const std::string &FlagPath);

} // namespace pseq::obs

#endif // PSEQ_OBS_TRACESINK_H
