#include "src/nvram/nvram.h"

#include <sys/mman.h>

#include <algorithm>

#include "src/common/logging.h"

namespace farm {

NvramStore::~NvramStore() {
  for (auto [addr, len] : mappings_) {
    munmap(addr, len);
  }
}

uint64_t NvramStore::Allocate(size_t len, uint8_t** data) {
  FARM_CHECK(len > 0);
  size_t advance = (len + kAlign - 1) / kAlign * kAlign;
  if (advance > map_left_) {
    // Fresh anonymous pages read as zero and become resident only when
    // first written; the unused tail of the previous mapping is never
    // touched, so it costs address space only.
    size_t map_len = (std::max(advance, kMinMapping) + 4095) & ~size_t{4095};
    void* p = mmap(nullptr, map_len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    FARM_CHECK(p != MAP_FAILED) << "NVRAM mapping of " << map_len << " bytes failed";
    mappings_.emplace_back(p, map_len);
    map_next_ = static_cast<uint8_t*>(p);
    map_left_ = map_len;
  }
  uint64_t base = next_addr_;
  segments_.push_back(Segment{base, len, map_next_});
  if (data != nullptr) {
    *data = map_next_;
  }
  map_next_ += advance;
  map_left_ -= advance;
  next_addr_ = base + advance;
  return base;
}

uint8_t* NvramStore::Data(uint64_t addr, size_t len) {
  auto it = std::upper_bound(segments_.begin(), segments_.end(), addr,
                             [](uint64_t a, const Segment& s) { return a < s.base; });
  if (it == segments_.begin() || len == 0) {
    return nullptr;
  }
  --it;
  uint64_t off = addr - it->base;
  if (len > it->len || off > it->len - len) {
    return nullptr;
  }
  return it->data + off;
}

const uint8_t* NvramStore::Data(uint64_t addr, size_t len) const {
  return const_cast<NvramStore*>(this)->Data(addr, len);
}

bool NvramStore::RdmaRead(uint64_t addr, size_t len, uint8_t* out) {
  uint8_t* p = Data(addr, len);
  if (p == nullptr) {
    return false;
  }
  std::memcpy(out, p, len);
  return true;
}

bool NvramStore::RdmaWrite(uint64_t addr, const uint8_t* data, size_t len) {
  uint8_t* p = Data(addr, len);
  if (p == nullptr) {
    return false;
  }
  if (torn_armed_) {
    torn_armed_ = false;
    torn_writes_++;
    std::memcpy(p, data, torn_keep_ < len ? torn_keep_ : len);
    return true;
  }
  std::memcpy(p, data, len);
  return true;
}

bool NvramStore::RdmaCas(uint64_t addr, uint64_t expected, uint64_t desired, uint64_t* observed) {
  uint8_t* p = Data(addr, 8);
  if (p == nullptr || (addr & 7) != 0) {
    return false;
  }
  uint64_t current;
  std::memcpy(&current, p, 8);
  *observed = current;
  if (current == expected) {
    std::memcpy(p, &desired, 8);
  }
  return true;
}

}  // namespace farm
