#include "trace.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local e2e::u64 tAllocs = 0;

void *countedAlloc(std::size_t size) {
  ++tAllocs;
  if (size == 0) size = 1;
  if (void *p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void *countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++tAllocs;
  const auto a = static_cast<std::size_t>(align);
  size = (size + a - 1) / a * a;
  if (size == 0) size = a;
  if (void *p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

} // namespace

// The replaced global allocation functions (every form that allocates; the
// default nothrow/array forms forward to these).
void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void *operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace e2e {

Tracer &tracer() {
  static Tracer t;
  return t;
}

void Tracer::start() {
  spans_.clear();
  stack_.clear();
  spans_.reserve(1 << 16);
  origin_ = std::chrono::steady_clock::now();
  enabled_ = true;
}

usize Tracer::open(const char *name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? kNoParent : stack_.back();
  s.startMs =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - origin_).count();
  s.allocs = tAllocs;
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(usize id) {
  auto &s = spans_[id];
  s.endMs =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - origin_).count();
  s.allocs = tAllocs - s.allocs;
  stack_.pop_back();
}

std::map<std::string, Tracer::Self> Tracer::selfByName() const {
  std::vector<double> childMs(spans_.size(), 0);
  std::vector<u64> childAllocs(spans_.size(), 0);
  for (const auto &s : spans_) {
    if (s.parent == kNoParent) continue;
    childMs[s.parent] += s.endMs - s.startMs;
    childAllocs[s.parent] += s.allocs;
  }
  std::map<std::string, Self> out;
  for (usize i = 0; i < spans_.size(); ++i) {
    auto &self = out[spans_[i].name];
    self.ms += spans_[i].endMs - spans_[i].startMs - childMs[i];
    self.allocs += spans_[i].allocs - childAllocs[i];
    ++self.calls;
  }
  return out;
}

} // namespace e2e
