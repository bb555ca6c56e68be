//===- obs/TraceSink.cpp - JSONL event sinks ------------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/TraceSink.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace pseq::obs;

std::string pseq::obs::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

std::string pseq::obs::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  // %.17g round-trips doubles but is noisy; timings/gauges don't need more
  // than %.6g, and it keeps reports stable across runs of equal values.
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

void TraceValue::append(std::string &Out) const {
  switch (K) {
  case Kind::Bool:
    Out += B ? "true" : "false";
    break;
  case Kind::Int:
    Out += std::to_string(I);
    break;
  case Kind::UInt:
    Out += std::to_string(U);
    break;
  case Kind::Real:
    Out += jsonNumber(D);
    break;
  case Kind::Str:
    Out += '"';
    Out += jsonEscape(S);
    Out += '"';
    break;
  }
}

TraceSink::TraceSink(const std::string &Path)
    : Out(Path), Opened(std::chrono::steady_clock::now()) {}

TraceSink::~TraceSink() { Out.flush(); }

void TraceSink::event(std::string_view Kind,
                           const std::vector<TraceField> &Fields) {
  if (!Out.is_open())
    return;
  std::chrono::duration<double, std::milli> Ms =
      std::chrono::steady_clock::now() - Opened;
  std::string Line;
  Line.reserve(64 + Fields.size() * 24);
  Line += "{\"seq\":";
  Line += std::to_string(Seq++);
  Line += ",\"ms\":";
  Line += jsonNumber(Ms.count());
  Line += ",\"ev\":\"";
  Line += jsonEscape(Kind);
  Line += '"';
  for (const TraceField &F : Fields) {
    Line += ",\"";
    Line += jsonEscape(F.Key);
    Line += "\":";
    F.Val.append(Line);
  }
  Line += "}\n";
  Out << Line;
}

std::unique_ptr<TraceSink> pseq::obs::traceSinkFromEnv() {
  const char *Path = std::getenv("PSEQ_TRACE");
  if (!Path || !*Path)
    return nullptr;
  auto Sink = std::make_unique<TraceSink>(Path);
  if (!Sink->ok()) {
    std::fprintf(stderr, "pseq: warning: PSEQ_TRACE=%s not writable\n", Path);
    return nullptr;
  }
  return Sink;
}

std::unique_ptr<TraceSink>
pseq::obs::traceSinkFromFlagOrEnv(const std::string &FlagPath) {
  if (FlagPath.empty())
    return traceSinkFromEnv();
  const char *Env = std::getenv("PSEQ_TRACE");
  if (Env && *Env && FlagPath != Env)
    std::fprintf(stderr,
                 "pseq: warning: both --trace=%s and PSEQ_TRACE=%s are set; "
                 "the flag wins\n",
                 FlagPath.c_str(), Env);
  auto Sink = std::make_unique<TraceSink>(FlagPath);
  if (!Sink->ok()) {
    std::fprintf(stderr, "pseq: warning: --trace %s not writable\n",
                 FlagPath.c_str());
    return nullptr;
  }
  return Sink;
}
