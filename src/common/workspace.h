#ifndef FACTION_COMMON_WORKSPACE_H_
#define FACTION_COMMON_WORKSPACE_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "tensor/matrix.h"

namespace faction {

/// Named scratch-buffer arena for allocation-free hot loops.
///
/// A Workspace owns a set of reusable buffers keyed by name. The first
/// *For() call with a given name allocates the buffer; later calls return
/// the same buffer resized to the requested shape, retaining capacity, so a
/// steady-state training loop performs no heap allocation per step.
///
/// Contract (see DESIGN.md §10):
///  * The Workspace owns every buffer it hands out. Returned pointers stay
///    valid until the Workspace is destroyed; the resizing *For() calls
///    never invalidate them (buffers are node-stored), but they DO
///    invalidate the *contents*.
///  * Contents after a *For() call are unspecified (stale data from the
///    previous use). Callers must fully overwrite a buffer before reading
///    it. This is what makes reuse bitwise-deterministic: results depend
///    only on what the caller writes, never on what was left behind.
///  * A Workspace is single-threaded state. Never share one across
///    threads; the one pooled kernel, Conv2d, keeps per-chunk scratch
///    instead. Passing a Workspace down a call chain that internally runs
///    Conv2d is fine.
///  * Distinct logical uses must use distinct names. Reusing a name for
///    two buffers that are live simultaneously is a correctness bug the
///    Workspace cannot detect.
class Workspace {
 public:
  Workspace() = default;

  // Buffers are node-stored in maps; moving the Workspace would not
  // invalidate pointers, but copying would silently fork buffer identity,
  // so both are disabled.
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Matrix buffer resized (for overwrite — contents unspecified) to
  /// rows x cols.
  Matrix* MatrixFor(std::string_view name, std::size_t rows,
                    std::size_t cols) {
    Matrix* m = &FindOrCreate(matrices_, name);
    m->ResizeForOverwrite(rows, cols);
    return m;
  }

  /// int vector resized (for overwrite) to n elements.
  std::vector<int>* IntsFor(std::string_view name, std::size_t n) {
    std::vector<int>* v = &FindOrCreate(ints_, name);
    v->resize(n);
    return v;
  }

  /// size_t vector resized (for overwrite) to n elements.
  std::vector<std::size_t>* SizesFor(std::string_view name, std::size_t n) {
    std::vector<std::size_t>* v = &FindOrCreate(sizes_, name);
    v->resize(n);
    return v;
  }

  /// double vector resized (for overwrite) to n elements.
  std::vector<double>* DoublesFor(std::string_view name, std::size_t n) {
    std::vector<double>* v = &FindOrCreate(doubles_, name);
    v->resize(n);
    return v;
  }

  /// Number of distinct buffers currently owned (all types).
  std::size_t buffer_count() const {
    return matrices_.size() + ints_.size() + sizes_.size() + doubles_.size();
  }

 private:
  template <typename MapT>
  static typename MapT::mapped_type& FindOrCreate(MapT& map,
                                                  std::string_view name) {
    FACTION_CHECK(!name.empty());
    auto it = map.find(name);
    if (it == map.end()) {
      it = map.emplace(std::string(name), typename MapT::mapped_type()).first;
    }
    return it->second;
  }

  // std::map keeps stable node addresses across inserts, which is what
  // lets MatrixFor return long-lived pointers.
  std::map<std::string, Matrix, std::less<>> matrices_;
  std::map<std::string, std::vector<int>, std::less<>> ints_;
  std::map<std::string, std::vector<std::size_t>, std::less<>> sizes_;
  std::map<std::string, std::vector<double>, std::less<>> doubles_;
};

}  // namespace faction

#endif  // FACTION_COMMON_WORKSPACE_H_
