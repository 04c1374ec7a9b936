#include "gmetad/render/fragments.hpp"

#include "gmetad/render/json_backend.hpp"
#include "gmetad/render/traversal.hpp"
#include "gmetad/render/xml_backend.hpp"

namespace ganglia::gmetad::render {

namespace {

// Slot layout inside SourceSnapshot's fragment array.  Cluster sections are
// mode-independent (clusters always render at full detail on this path);
// grid sections are built per mode.
enum Slot : std::size_t {
  kXmlClusters = 0,
  kJsonClusters = 1,
  kXmlGridsOneLevel = 2,
  kXmlGridsNLevel = 3,
  kJsonGridsOneLevel = 4,
  kJsonGridsNLevel = 5,
};

/// What each slot holds, indexed by Slot.
struct SlotShape {
  Format format;
  bool grids;
  Mode mode;  ///< grid sections only
};
constexpr SlotShape kSlots[] = {
    {Format::xml, false, Mode::n_level},    // kXmlClusters
    {Format::json, false, Mode::n_level},   // kJsonClusters
    {Format::xml, true, Mode::one_level},   // kXmlGridsOneLevel
    {Format::xml, true, Mode::n_level},     // kXmlGridsNLevel
    {Format::json, true, Mode::one_level},  // kJsonGridsOneLevel
    {Format::json, true, Mode::n_level},    // kJsonGridsNLevel
};
static_assert(std::size(kSlots) == SourceSnapshot::kFragmentSlots);

std::size_t cluster_slot(Format format) {
  return format == Format::xml ? kXmlClusters : kJsonClusters;
}

std::size_t grid_slot(Format format, Mode mode) {
  if (format == Format::xml) {
    return mode == Mode::one_level ? kXmlGridsOneLevel : kXmlGridsNLevel;
  }
  return mode == Mode::one_level ? kJsonGridsOneLevel : kJsonGridsNLevel;
}

void walk_slot(const SourceSnapshot& snapshot, const SlotShape& shape,
               Backend& backend) {
  if (shape.grids) {
    walk_source_grids(snapshot, shape.mode, /*summary_only=*/false, backend);
  } else {
    walk_source_clusters(snapshot, /*summary_only=*/false, backend);
  }
}

std::string build_slot(const SourceSnapshot& snapshot, std::size_t slot) {
  const SlotShape& shape = kSlots[slot];
  std::string out;
  if (shape.format == Format::xml) {
    XmlBackend backend(out);
    walk_slot(snapshot, shape, backend);
  } else {
    JsonBackend backend(out, /*fragment=*/true);
    walk_slot(snapshot, shape, backend);
    backend.finish_fragment();
  }
  return out;
}

const std::string& read_slot(const SourceSnapshot& snapshot,
                             std::size_t slot) {
  return snapshot.fragment(
      slot, [&snapshot, slot] { return build_slot(snapshot, slot); });
}

}  // namespace

const std::string& cluster_fragment(const SourceSnapshot& snapshot,
                                    Format format) {
  return read_slot(snapshot, cluster_slot(format));
}

const std::string& grid_fragment(const SourceSnapshot& snapshot, Format format,
                                 Mode mode) {
  return read_slot(snapshot, grid_slot(format, mode));
}

void prime_fragments(const SourceSnapshot& snapshot,
                     const SourceSnapshot* previous) {
  if (previous == nullptr) return;
  const std::uint32_t read = previous->fragment_use().read;
  for (std::size_t slot = 0; slot < SourceSnapshot::kFragmentSlots; ++slot) {
    if ((read & (1U << slot)) == 0) continue;
    snapshot.prime_fragment(
        slot, [&snapshot, slot] { return build_slot(snapshot, slot); });
  }
}

}  // namespace ganglia::gmetad::render
