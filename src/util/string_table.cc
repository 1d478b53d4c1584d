#include "src/util/string_table.h"

#include <algorithm>
#include <cstring>
#include <functional>

namespace depsurf {

uint32_t StringTableBuilder::Add(std::string_view s) {
  if (s.empty()) {
    return 0;
  }
  if ((count_ + 1) * 2 > index_.size()) {
    Grow();
  }
  const uint32_t tag = static_cast<uint32_t>(std::hash<std::string_view>{}(s));
  const size_t mask = index_.size() - 1;
  size_t i = tag & mask;
  for (; index_[i].off != 0; i = (i + 1) & mask) {
    const Slot& slot = index_[i];
    if (slot.tag == tag && slot.len == s.size() &&
        std::memcmp(bytes_.data() + slot.off, s.data(), s.size()) == 0) {
      return slot.off;
    }
  }
  const uint32_t off = static_cast<uint32_t>(bytes_.size());
  bytes_.insert(bytes_.end(), s.begin(), s.end());
  bytes_.push_back(0);
  index_[i] = Slot{off, static_cast<uint32_t>(s.size()), tag};
  ++count_;
  return off;
}

void StringTableBuilder::Grow() {
  std::vector<Slot> old = std::move(index_);
  index_.assign(std::max<size_t>(64, old.size() * 2), Slot{});
  const size_t mask = index_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.off == 0) {
      continue;
    }
    size_t i = slot.tag & mask;
    while (index_[i].off != 0) {
      i = (i + 1) & mask;
    }
    index_[i] = slot;
  }
}

}  // namespace depsurf
