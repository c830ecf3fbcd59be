// Versioned, self-framing session snapshots — the durable state of a live
// decode stream, and the failover currency of the sharded cluster
// (serve/cluster.hpp).
//
// The paper's measurement-independence of `compute K` (PAPER.md pillar 1)
// makes this state tiny: K/P at iteration n are fully determined by the
// FilterConfig, so a session is captured by (config fingerprint, schedule
// iteration, state vector x) plus its health rung and stat carryovers.  On
// restore, the covariance and every future gain are replayed from the
// target shard's (warm) GainScheduleCache at exactly `iteration`, which is
// why a restored trajectory continues bit-identical to the uninterrupted
// run — proven by tests/serve/snapshot_test.cpp.
//
// Wire format (little-endian, self-framing so a stream reader can split
// frames without parsing the payload; the future UDP transport PR reuses
// this framing for measurement ingestion):
//
//   offset 0   char[4]  magic "KMSN"
//          4   u16      version (kSnapshotVersion)
//          6   u16      flags (0; reserved)
//          8   u32      payload_len (bytes that follow the 12-byte header)
//         12   payload  (see encode())
//   12+len     u64      FNV-1a checksum over bytes [0, 12+payload_len)
//
// decode() is the trust boundary: every malformed frame — short, bad
// magic, unknown version, truncated or oversized payload, checksum
// mismatch, payload under/overrun — is rejected with a Status, never UB.
// Status carries string literals only, so rejection is allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/fingerprint.hpp"
#include "common/status.hpp"
#include "serve/stats.hpp"

namespace kalmmind::serve {

inline constexpr std::uint16_t kSnapshotVersion = 1;
inline constexpr char kSnapshotMagic[4] = {'K', 'M', 'S', 'N'};
inline constexpr std::size_t kSnapshotHeaderBytes = 12;
inline constexpr std::size_t kSnapshotChecksumBytes = 8;
// Sanity bound on the state dimension (paper dims are x=6; nothing in the
// repo exceeds a few thousand).  Guards the decoder against allocating
// gigabytes for a corrupted length field.
inline constexpr std::size_t kSnapshotMaxStateDim = 1u << 20;

// The durable state of one session.  `iteration` is the gain-schedule
// iteration the *next* decode runs at; `x` is the estimate after decode
// iteration-1 (x0 when iteration == 0).  The counter block (the base) is a
// lifetime carryover: a restored session resumes it so cluster accounting
// stays closed across migrations (decoded + discarded + rejected ==
// submitted).
struct SessionSnapshot : SessionCounters {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t iteration = 0;
  std::vector<double> x;

  // Health rung (SessionState) + quarantine backoff at capture time.
  std::uint8_t health_rung = 0;
  std::uint64_t backoff_remaining = 0;

  // Trajectory entries recorded at capture time — the owner (cluster) uses
  // this to copy a consistent prefix for post-failover concatenation.
  std::uint64_t recorded_states = 0;
};

namespace snapshot_detail {

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(std::uint8_t(v & 0xff));
  out.push_back(std::uint8_t(v >> 8));
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}
inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

// Bounded little-endian reader over [data, data+len).  Every read checks
// the remaining length; a failed read poisons the cursor so callers can
// check once at the end.
struct Reader {
  const std::uint8_t* data;
  std::size_t len;
  std::size_t pos = 0;
  bool ok = true;

  bool take(std::size_t n) {
    if (!ok || len - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = std::uint16_t(data[pos]) |
                      std::uint16_t(std::uint16_t(data[pos + 1]) << 8);
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(data[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(data[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
};

inline std::uint64_t checksum(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = FingerprintHasher::kOffset;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= FingerprintHasher::kPrime;
  }
  return h;
}

}  // namespace snapshot_detail

// Serialize to one self-framing binary frame.
inline std::vector<std::uint8_t> encode(const SessionSnapshot& s) {
  namespace d = snapshot_detail;
  std::vector<std::uint8_t> out;
  out.reserve(kSnapshotHeaderBytes + 160 + 8 * s.x.size() +
              kSnapshotChecksumBytes);
  out.insert(out.end(), kSnapshotMagic, kSnapshotMagic + 4);
  d::put_u16(out, kSnapshotVersion);
  d::put_u16(out, 0);  // flags
  d::put_u32(out, 0);  // payload_len, patched below

  const std::size_t payload_at = out.size();
  d::put_u64(out, s.config_fingerprint);
  d::put_u64(out, s.iteration);
  d::put_u32(out, std::uint32_t(s.x.size()));
  for (double v : s.x) d::put_f64(out, v);
  out.push_back(s.health_rung);
  out.push_back(0);  // pad
  d::put_u16(out, 0);
  d::put_u64(out, s.backoff_remaining);
  d::put_u64(out, s.steps);
  d::put_u64(out, s.batched_steps);
  d::put_u64(out, s.deadline_misses);
  d::put_u64(out, s.invalid_steps);
  d::put_u64(out, s.restarts);
  d::put_u64(out, s.degradations);
  d::put_u64(out, s.quarantine_dropped);
  d::put_u64(out, s.rejected);
  d::put_u64(out, s.dropped);
  d::put_u64(out, s.discarded);
  d::put_f64(out, s.sum_step_s);
  d::put_f64(out, s.worst_step_s);
  d::put_u64(out, s.recorded_states);

  const std::uint32_t payload_len = std::uint32_t(out.size() - payload_at);
  out[8] = std::uint8_t(payload_len & 0xff);
  out[9] = std::uint8_t((payload_len >> 8) & 0xff);
  out[10] = std::uint8_t((payload_len >> 16) & 0xff);
  out[11] = std::uint8_t((payload_len >> 24) & 0xff);
  d::put_u64(out, d::checksum(out.data(), out.size()));
  return out;
}

// Parse one frame.  On any malformation returns a non-ok Status and leaves
// `out` untouched; never UB regardless of input bytes.
[[nodiscard]] inline Status decode(const std::uint8_t* data,
                                   std::size_t len,
                     SessionSnapshot* out) {
  namespace d = snapshot_detail;
  if (data == nullptr || out == nullptr)
    return Status::Invalid("snapshot: null frame or output");
  if (len < kSnapshotHeaderBytes + kSnapshotChecksumBytes)
    return Status::Invalid("snapshot: frame shorter than header");
  if (std::memcmp(data, kSnapshotMagic, 4) != 0)
    return Status::Invalid("snapshot: bad magic");
  d::Reader header{data, len, 4};
  const std::uint16_t version = header.u16();
  header.u16();  // flags, ignored at version 1
  const std::uint32_t payload_len = header.u32();
  if (version != kSnapshotVersion)
    return Status::Invalid("snapshot: unsupported version");
  if (std::size_t(payload_len) !=
      len - kSnapshotHeaderBytes - kSnapshotChecksumBytes)
    return Status::Invalid("snapshot: payload length disagrees with frame");
  const std::size_t body = kSnapshotHeaderBytes + payload_len;
  d::Reader tail{data, len, body};
  if (tail.u64() != d::checksum(data, body))
    return Status::Invalid("snapshot: checksum mismatch");

  d::Reader r{data, body, kSnapshotHeaderBytes};
  SessionSnapshot s;
  s.config_fingerprint = r.u64();
  s.iteration = r.u64();
  const std::uint32_t x_dim = r.u32();
  if (!r.ok || x_dim > kSnapshotMaxStateDim)
    return Status::Invalid("snapshot: state dimension out of range");
  if ((body - r.pos) / 8 < x_dim)
    return Status::Invalid("snapshot: truncated state vector");
  s.x.resize(x_dim);
  for (std::uint32_t i = 0; i < x_dim; ++i) s.x[i] = r.f64();
  if (!r.take(4)) return Status::Invalid("snapshot: truncated payload");
  s.health_rung = r.data[r.pos];
  r.pos += 4;  // rung + pad bytes
  s.backoff_remaining = r.u64();
  s.steps = r.u64();
  s.batched_steps = r.u64();
  s.deadline_misses = r.u64();
  s.invalid_steps = r.u64();
  s.restarts = r.u64();
  s.degradations = r.u64();
  s.quarantine_dropped = r.u64();
  s.rejected = r.u64();
  s.dropped = r.u64();
  s.discarded = r.u64();
  s.sum_step_s = r.f64();
  s.worst_step_s = r.f64();
  s.recorded_states = r.u64();
  if (!r.ok) return Status::Invalid("snapshot: truncated payload");
  if (r.pos != body)
    return Status::Invalid("snapshot: trailing bytes in payload");
  if (s.health_rung > std::uint8_t(SessionState::kFailed))
    return Status::Invalid("snapshot: unknown health rung");
  *out = std::move(s);
  return Status::Ok();
}

[[nodiscard]] inline Status decode(const std::vector<std::uint8_t>& frame,
                     SessionSnapshot* out) {
  return decode(frame.data(), frame.size(), out);
}

// Human-readable mirror of one snapshot (debugging / CLI), single line.
inline std::string to_debug_json(const SessionSnapshot& s) {
  std::string out =
      "{\"config_fingerprint\":" + std::to_string(s.config_fingerprint) +
                    ",\"iteration\":" + std::to_string(s.iteration) +
                    ",\"x\":[";
  for (std::size_t i = 0; i < s.x.size(); ++i) {
    if (i) out += ',';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", s.x[i]);
    out += buf;
  }
  out += "],\"health_rung\":\"";
  out += to_string(SessionState(s.health_rung));
  out += "\",\"backoff_remaining\":" + std::to_string(s.backoff_remaining) +
         ",\"steps\":" + std::to_string(s.steps) +
         ",\"batched_steps\":" + std::to_string(s.batched_steps) +
         ",\"deadline_misses\":" + std::to_string(s.deadline_misses) +
         ",\"invalid_steps\":" + std::to_string(s.invalid_steps) +
         ",\"restarts\":" + std::to_string(s.restarts) +
         ",\"discarded\":" + std::to_string(s.discarded) +
         ",\"recorded_states\":" + std::to_string(s.recorded_states) + "}";
  return out;
}

}  // namespace kalmmind::serve
