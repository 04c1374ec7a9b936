#include "gmetad/data_source.hpp"

#include "common/log.hpp"

namespace ganglia::gmetad {

std::string DataSource::session_mode(std::int64_t now_s) const {
  if (config_.federation_address.empty()) return "xml";
  if (delta_retry_after_.load(std::memory_order_relaxed) > now_s) {
    return "backoff";
  }
  return session_live_.load(std::memory_order_relaxed) ? "delta" : "sync";
}

void DataSource::set_federation_address(const std::string& address) {
  std::lock_guard lock(session_mutex_);
  if (config_.federation_address == address) return;
  config_.federation_address = address;
  session_.reset();
  session_live_.store(false, std::memory_order_relaxed);
  delta_retry_after_.store(0, std::memory_order_relaxed);
}

Result<DataSource::Fetched> DataSource::fetch_delta(net::Transport& transport,
                                                    TimeUs timeout,
                                                    std::int64_t now_s,
                                                    fed::View view,
                                                    CpuMeter* meter) {
  std::lock_guard lock(session_mutex_);
  if (session_ == nullptr ||
      session_->address() != config_.federation_address) {
    fed::SessionOptions opts;
    opts.address = config_.federation_address;
    opts.max_frame = config_.federation_max_frame;
    session_ = std::make_unique<fed::Session>(std::move(opts));
  }
  auto out = session_->poll(transport, timeout, meter, view);
  if (!out.ok()) {
    session_live_.store(false, std::memory_order_relaxed);
    return out.error();
  }
  session_live_.store(true, std::memory_order_relaxed);
  Fetched f;
  f.report = std::move(out->report);
  f.bytes = out->bytes;
  f.via_delta = out->delta;
  f.resync = out->resync;
  if (out->delta) {
    delta_polls_.fetch_add(1, std::memory_order_relaxed);
    bytes_delta_.fetch_add(out->bytes, std::memory_order_relaxed);
    const std::uint64_t full = last_full_bytes_.load(std::memory_order_relaxed);
    if (full > out->bytes) {
      bytes_saved_.fetch_add(full - out->bytes, std::memory_order_relaxed);
    }
  } else {
    full_polls_.fetch_add(1, std::memory_order_relaxed);
    bytes_full_.fetch_add(out->bytes, std::memory_order_relaxed);
    last_full_bytes_.store(out->bytes, std::memory_order_relaxed);
    if (out->resync) delta_resyncs_.fetch_add(1, std::memory_order_relaxed);
  }
  reachable_.store(true, std::memory_order_relaxed);
  consecutive_failures_.store(0, std::memory_order_relaxed);
  last_success_s_.store(now_s, std::memory_order_relaxed);
  {
    std::lock_guard err_lock(last_error_mutex_);
    last_error_.clear();
    delta_error_.clear();
  }
  return f;
}

void DataSource::heartbeat(net::Transport& transport, TimeUs timeout) {
  if (config_.federation_address.empty()) return;
  if (!session_live_.load(std::memory_order_relaxed)) return;
  std::unique_lock lock(session_mutex_, std::try_to_lock);
  if (!lock.owns_lock() || session_ == nullptr) return;  // poll in flight
  auto st = session_->ping(transport, timeout);
  if (!st.ok()) {
    GLOG(debug, "gmetad") << "source " << config_.name
                          << ": federation ping failed: "
                          << st.error().to_string();
  }
}

std::optional<Result<std::string>> DataSource::piggyback_digest(
    net::Transport& transport, TimeUs timeout, std::string_view payload) {
  if (config_.federation_address.empty()) return std::nullopt;
  if (!session_live_.load(std::memory_order_relaxed)) return std::nullopt;
  std::unique_lock lock(session_mutex_, std::try_to_lock);
  if (!lock.owns_lock() || session_ == nullptr) return std::nullopt;
  piggyback_digests_.fetch_add(1, std::memory_order_relaxed);
  auto reply = session_->digest_exchange(transport, timeout, payload);
  if (!reply.ok()) {
    GLOG(debug, "gmetad") << "source " << config_.name
                          << ": piggybacked digest failed: "
                          << reply.error().to_string();
  }
  return reply;
}

Result<DataSource::Fetched> DataSource::fetch(net::Transport& transport,
                                              TimeUs timeout,
                                              std::int64_t now_s,
                                              fed::View view,
                                              CpuMeter* meter) {
  Error last = Err(Errc::exhausted, "no addresses configured");
  bool have_last = false;

  if (!config_.federation_address.empty() &&
      delta_retry_after_.load(std::memory_order_relaxed) <= now_s) {
    auto delta = fetch_delta(transport, timeout, now_s, view, meter);
    if (delta.ok()) return delta;
    // Delta path down: count it as a resync, back off, and let the legacy
    // XML path below carry this poll.
    delta_resyncs_.fetch_add(1, std::memory_order_relaxed);
    delta_retry_after_.store(now_s + config_.federation_resync_backoff_s,
                             std::memory_order_relaxed);
    last = delta.error();
    have_last = true;
    {
      std::lock_guard lock(last_error_mutex_);
      delta_error_ = last.to_string();
    }
    GLOG(debug, "gmetad") << "source " << config_.name << ": delta poll via "
                          << config_.federation_address
                          << " failed: " << last.to_string();
  }

  const std::size_t n = config_.addresses.size();
  const std::size_t preferred = preferred_.load(std::memory_order_relaxed);
  for (std::size_t attempt = 0; attempt < n; ++attempt) {
    const std::size_t index = (preferred + attempt) % n;
    const std::string& address = config_.addresses[index];

    auto stream = transport.connect(address, timeout);
    if (!stream.ok()) {
      last = stream.error();
      GLOG(debug, "gmetad") << "source " << config_.name << ": connect to "
                            << address << " failed: " << last.to_string();
      continue;
    }
    auto body = net::read_to_eof(**stream);
    if (!body.ok()) {
      last = body.error();
      GLOG(debug, "gmetad") << "source " << config_.name << ": read from "
                            << address << " failed: " << last.to_string();
      continue;
    }
    if (index != preferred) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      GLOG(info, "gmetad") << "source " << config_.name << ": failed over to "
                           << address;
      preferred_.store(index, std::memory_order_relaxed);
    }
    reachable_.store(true, std::memory_order_relaxed);
    consecutive_failures_.store(0, std::memory_order_relaxed);
    last_success_s_.store(now_s, std::memory_order_relaxed);
    {
      std::lock_guard lock(last_error_mutex_);
      last_error_.clear();
    }
    Fetched f;
    f.bytes = body->size();
    f.body = std::move(*body);
    full_polls_.fetch_add(1, std::memory_order_relaxed);
    bytes_full_.fetch_add(f.bytes, std::memory_order_relaxed);
    last_full_bytes_.store(f.bytes, std::memory_order_relaxed);
    return f;
  }
  reachable_.store(false, std::memory_order_relaxed);
  consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(last_error_mutex_);
    last_error_ = last.to_string();
  }
  if (n == 0 && have_last) {
    return Err(Errc::exhausted, "delta poll of source '" + config_.name +
                                    "' failed with no XML fallback: " +
                                    last.to_string());
  }
  return Err(Errc::exhausted,
             "all " + std::to_string(n) + " addresses of source '" +
                 config_.name + "' failed; last: " + last.to_string());
}

}  // namespace ganglia::gmetad
