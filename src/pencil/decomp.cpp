#include "pencil/decomp.hpp"

#include <algorithm>

namespace pcf::pencil {

bool split_valid(const grid& g, int pa, int pb) {
  if (pa < 1 || pb < 1) return false;
  const auto a = static_cast<std::size_t>(pa);
  const auto b = static_cast<std::size_t>(pb);
  return a <= std::min(g.nxh(), g.nz) && b <= std::min(g.ny, g.nz);
}

void default_pencil_grid(int ranks, int& pa, int& pb) {
  pa = 1;
  for (int a = 1; a * a <= ranks; ++a)
    if (ranks % a == 0) pa = a;
  pb = ranks / pa;
}

std::vector<process_split> split_candidates(const grid& g, int ranks, int pa,
                                            int pb) {
  if (pa < 1 || pb < 1 || pa * pb != ranks) default_pencil_grid(ranks, pa, pb);
  std::vector<process_split> out{{pa, pb}};
  // Append a x (ranks / a) when it divides the ranks, leaves every block
  // nonempty and is not already listed.
  auto add = [&](int a) {
    if (a > ranks || ranks % a != 0) return;
    const process_split s{a, ranks / a};
    if (split_valid(g, s.pa, s.pb) &&
        std::find(out.begin(), out.end(), s) == out.end())
      out.push_back(s);
  };
  if (ranks > 1) add(1);
  for (int c = 2; c <= ranks; ++c) {
    if (ranks % c == 0 && split_valid(g, c, ranks / c)) {
      add(c);
      add(2 * c);
      break;
    }
  }
  return out;
}

}  // namespace pcf::pencil
