//===- psna/View.cpp - Thread and message views ---------------------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "psna/View.h"

#include "support/Hashing.h"

#include <cstdio>
#include <cstdlib>

using namespace pseq;

void pseq::rankOverflow() {
  std::fprintf(stderr, "pseq: timestamp rank overflow\n");
  std::abort();
}

View View::zero(unsigned NumLocs) {
  View V;
  V.T.assign(NumLocs, 0);
  return V;
}

void View::join(const Time *O) {
  for (size_t I = 0, E = T.size(); I != E; ++I)
    if (T[I] < O[I])
      T[I] = O[I];
}

uint64_t View::hash() const { return hashRange(0, T); }

std::string View::str() const { return viewStr(T.data(), numLocs()); }

std::string pseq::viewStr(const Time *V, unsigned NumLocs) {
  std::string Out = "[";
  for (unsigned I = 0; I != NumLocs; ++I) {
    if (I)
      Out += ",";
    Out += std::to_string(V[I]);
  }
  return Out + "]";
}
