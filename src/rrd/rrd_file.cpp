#include "rrd/rrd_file.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

namespace ganglia::rrd {

namespace {

constexpr char kMagic[8] = {'G', 'R', 'R', 'D', '0', '0', '0', '1'};

// -- little-endian primitive encoding ------------------------------------

template <class T>
void put(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

void put_string(std::string& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  template <class T>
  bool get(T& v) {
    if (pos_ + sizeof(T) > data_.size()) return false;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool get_string(std::string& s, std::size_t max = 1 << 20) {
    std::uint32_t len = 0;
    if (!get(len) || len > max || pos_ + len > data_.size()) return false;
    s.assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string RrdCodec::serialize(const RoundRobinDb& db) {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  const RrdDef& def = db.definition();
  put<std::int64_t>(out, def.step_s);

  put<std::uint32_t>(out, static_cast<std::uint32_t>(def.ds.size()));
  for (const DsDef& ds : def.ds) {
    put_string(out, ds.name);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(ds.type));
    put<std::int64_t>(out, ds.heartbeat_s);
    put<double>(out, ds.min_value);
    put<double>(out, ds.max_value);
  }

  put<std::uint32_t>(out, static_cast<std::uint32_t>(def.rras.size()));
  for (const RraDef& rra : def.rras) {
    put<std::uint8_t>(out, static_cast<std::uint8_t>(rra.cf));
    put<double>(out, rra.xff);
    put<std::uint32_t>(out, rra.pdp_per_row);
    put<std::uint32_t>(out, rra.rows);
  }

  put<std::int64_t>(out, db.last_update_);
  put<std::int64_t>(out, db.pdp_start_);
  put<std::uint64_t>(out, db.update_count_);

  const std::size_t n = def.ds.size();
  for (std::size_t i = 0; i < n; ++i) {
    const RoundRobinDb::PdpScratch& scratch = db.pdp()[i];
    put<double>(out, scratch.weighted_sum);
    put<std::int64_t>(out, scratch.known_s);
    put<double>(out, scratch.last_raw);
  }
  for (std::size_t i = 0; i < n; ++i) put<double>(out, db.last_pdp()[i]);

  const double* ring = db.rings();
  for (std::size_t r = 0; r < def.rras.size(); ++r) {
    const RoundRobinDb::RraCursor& cursor = db.cursors()[r];
    put<std::uint32_t>(out, cursor.cur_row);
    put<std::uint32_t>(out, cursor.pdp_count);
    put<std::int64_t>(out, cursor.last_row_time);
    for (std::size_t i = 0; i < n; ++i) {
      const RoundRobinDb::CdpScratch& cdp = db.cdp(r)[i];
      put<double>(out, cdp.agg);
      put<std::uint32_t>(out, cdp.unknown_count);
    }
    const std::size_t values = std::size_t{def.rras[r].rows} * n;
    for (std::size_t v = 0; v < values; ++v) put<double>(out, ring[v]);
    ring += values;
  }
  return out;
}

Result<RoundRobinDb> RrdCodec::deserialize(
    std::string_view bytes,
    std::span<const std::shared_ptr<const RrdDef>> shapes) {
  const auto fail = [] {
    return Err(Errc::parse_error, "corrupt or truncated RRD image");
  };
  if (bytes.size() < sizeof kMagic ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return Err(Errc::parse_error, "bad RRD magic");
  }
  Reader r(bytes.substr(sizeof kMagic));

  RrdDef def;
  if (!r.get(def.step_s)) return fail();

  std::uint32_t ds_count = 0;
  if (!r.get(ds_count) || ds_count == 0 || ds_count > 1024) return fail();
  def.ds.resize(ds_count);
  for (DsDef& ds : def.ds) {
    std::uint8_t type = 0;
    if (!r.get_string(ds.name) || !r.get(type) || !r.get(ds.heartbeat_s) ||
        !r.get(ds.min_value) || !r.get(ds.max_value)) {
      return fail();
    }
    if (type > static_cast<std::uint8_t>(DsType::counter)) return fail();
    ds.type = static_cast<DsType>(type);
  }

  std::uint32_t rra_count = 0;
  if (!r.get(rra_count) || rra_count == 0 || rra_count > 1024) return fail();
  def.rras.resize(rra_count);
  for (RraDef& rra : def.rras) {
    std::uint8_t cf = 0;
    if (!r.get(cf) || !r.get(rra.xff) || !r.get(rra.pdp_per_row) ||
        !r.get(rra.rows)) {
      return fail();
    }
    if (cf > static_cast<std::uint8_t>(ConsolidationFn::last)) return fail();
    rra.cf = static_cast<ConsolidationFn>(cf);
  }

  // The state that follows has a fixed size per data source and per ring
  // row: refuse an image too short to hold it before allocating the rings
  // (a corrupt `rows` field would otherwise claim gigabytes).  The counts
  // are capped above, so this sum cannot overflow.
  const std::uint64_t ds_n = ds_count;
  std::uint64_t needed = 3 * 8 + ds_n * (3 * 8 + 8);
  for (const RraDef& rra : def.rras) {
    needed += 4 + 4 + 8 + ds_n * (8 + 4) + std::uint64_t{rra.rows} * ds_n * 8;
  }
  if (needed > r.remaining()) return fail();

  std::shared_ptr<const RrdDef> shape;
  for (const auto& candidate : shapes) {
    if (candidate && *candidate == def) {
      shape = candidate;
      break;
    }
  }
  if (!shape) shape = std::make_shared<const RrdDef>(std::move(def));
  auto created = RoundRobinDb::create(std::move(shape), 0);
  if (!created.ok()) return created.error();
  RoundRobinDb db = std::move(*created);

  if (!r.get(db.last_update_) || !r.get(db.pdp_start_) ||
      !r.get(db.update_count_)) {
    return fail();
  }
  const RrdDef& shared = db.definition();
  const std::size_t n = shared.ds.size();
  for (std::size_t i = 0; i < n; ++i) {
    RoundRobinDb::PdpScratch& scratch = db.pdp()[i];
    if (!r.get(scratch.weighted_sum) || !r.get(scratch.known_s) ||
        !r.get(scratch.last_raw)) {
      return fail();
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!r.get(db.last_pdp()[i])) return fail();
  }
  double* ring = db.rings();
  for (std::size_t a = 0; a < shared.rras.size(); ++a) {
    const RraDef& rra = shared.rras[a];
    RoundRobinDb::RraCursor& cursor = db.cursors()[a];
    if (!r.get(cursor.cur_row) || !r.get(cursor.pdp_count) ||
        !r.get(cursor.last_row_time)) {
      return fail();
    }
    if (cursor.cur_row >= rra.rows || cursor.pdp_count >= rra.pdp_per_row) {
      return fail();
    }
    for (std::size_t i = 0; i < n; ++i) {
      RoundRobinDb::CdpScratch& cdp = db.cdp(a)[i];
      if (!r.get(cdp.agg) || !r.get(cdp.unknown_count)) return fail();
    }
    const std::size_t values = std::size_t{rra.rows} * n;
    for (std::size_t v = 0; v < values; ++v) {
      if (!r.get(ring[v])) return fail();
    }
    ring += values;
  }
  if (!r.done()) return fail();
  return db;
}

Status write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Err(Errc::io_error, "cannot open " + tmp + " for write");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return Err(Errc::io_error, "short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code remove_ec;
    std::filesystem::remove(tmp, remove_ec);
    return Err(Errc::io_error,
               "cannot rename " + tmp + " to " + path + ": " + ec.message());
  }
  return {};
}

Status RrdCodec::save_file(const RoundRobinDb& db, const std::string& path) {
  return write_file_atomic(path, serialize(db));
}

Result<RoundRobinDb> RrdCodec::load_file(
    const std::string& path,
    std::span<const std::shared_ptr<const RrdDef>> shapes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Err(Errc::io_error, "cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return deserialize(bytes, shapes);
}

}  // namespace ganglia::rrd
