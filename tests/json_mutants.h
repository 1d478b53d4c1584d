// Seeded byte mutations of JSON lines: each mutant is one seed with one to
// three edits (replace, delete, insert or truncate at a random position, or
// splice in another seed's tail). Inserted bytes come mostly from JSON's
// own alphabet, so mutants reach deep into the grammar and both accepting
// and rejecting paths are well represented. The serve request reader's
// grammar check and the grammar golden both draw their lines from here.
#ifndef DEPSURF_TESTS_JSON_MUTANTS_H_
#define DEPSURF_TESTS_JSON_MUTANTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/prng.h"

namespace depsurf {

inline std::vector<std::string> JsonMutants(const std::vector<std::string>& seeds, size_t count,
                                            uint64_t prng_seed) {
  const std::string alphabet = "{}[]\",:\\ \t\r\ntfnu0123456789.eE+-abx";
  Prng rng(prng_seed);
  auto random_byte = [&]() -> char {
    if (rng.NextBool(0.85)) {
      return alphabet[rng.NextBelow(alphabet.size())];
    }
    return static_cast<char>(rng.NextBelow(256));
  };
  std::vector<std::string> lines;
  while (lines.size() < count) {
    std::string line = seeds[rng.NextBelow(seeds.size())];
    for (uint64_t m = rng.NextInRange(1, 3); m > 0; --m) {
      const size_t pos = rng.NextBelow(line.size() + 1);
      switch (rng.NextBelow(5)) {
        case 0:  // replace
          if (pos < line.size()) {
            line[pos] = random_byte();
          }
          break;
        case 1:  // delete
          line.erase(pos, rng.NextInRange(1, 3));
          break;
        case 2:  // insert
          line.insert(line.begin() + static_cast<std::ptrdiff_t>(pos), random_byte());
          break;
        case 3:  // truncate
          line.resize(pos);
          break;
        default: {  // splice another seed's tail
          const std::string& other = seeds[rng.NextBelow(seeds.size())];
          line = line.substr(0, pos) + other.substr(rng.NextBelow(other.size() + 1));
          break;
        }
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace depsurf

#endif  // DEPSURF_TESTS_JSON_MUTANTS_H_
