/// \file micro_ckpt_io.cpp
/// Checkpoint I/O microbenchmark: commit latency and restore bandwidth per
/// storage backend (memory / log) at several image sizes,
/// comparing the serial copy→CRC→write reference against the CkptWriter
/// pipeline that overlaps the CRC with backend writes.
///
///   micro_ckpt_io --backends=memory,log --sizes-mb=2,8,32
///                 --reps=4 --dir=/tmp/abftc_ckpt_io --chunk-kb=1024
///                 --committers=1,2,4,8 --out=BENCH_ckpt_io.json
///
/// Per (backend, size) the artifact reports best-of-reps serial and async
/// commit times, the speedup `serial_ms / async_ms`, and restore bandwidth;
/// `best_async_speedup` is the maximum speedup observed (CI gates it — the
/// pipeline must beat write-then-CRC somewhere — and skips the gate on
/// single-core runners where there is no second core to hide the CRC on).
///
/// A second scenario measures the *commit storm*: per (backend, committer
/// count) a fresh store takes `committers` concurrent writer threads, each
/// committing 8 fixed-size snapshots; the `committer_scaling` block reports
/// aggregate commit throughput per cell. Backends that don't support
/// concurrent committers (memory) are serialized on a mutex. Beside the
/// backends runs a `medium` cell: the same threads pwrite + fdatasync the
/// same bytes into one private file each in the same directory — what the
/// filesystem gives concurrent writers with no store in the way. Every rep
/// runs every cell, odd reps in reverse order, so a store and its medium
/// share the box's state and neither always runs first. CI gates the log
/// backend's sharding against that baseline: log at 4 committers ≥ 0.75×
/// medium at 4 committers, from the same run.
///
/// A third scenario takes one snapshot shaped like the dist runtime's at
/// n=192 (16 B progress + 288 KiB matrix + 2 × 192 KiB accumulators) per
/// backend. The `dist_shape` block reports, best of reps, the payload
/// appends against the seal (WriteSession::commit: table, trailer, flush),
/// and a restore straight into the destination spans (restore_latest_into)
/// against latest_restorable plus a copy into the same spans. CI gates the
/// log backend's seal ≤ 0.25× its appends and its in-place restore ≤ 0.75×
/// the blob restore.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/io/backend.hpp"
#include "ckpt/io/detail.hpp"
#include "ckpt/io/writer.hpp"
#include "common/cli.hpp"
#include "common/crc32.hpp"
#include "common/executor.hpp"
#include "common/json.hpp"

using namespace abftc;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Row {
  std::string backend;
  std::size_t bytes = 0;
  double serial_s = 0.0;
  double async_s = 0.0;
  double restore_s = 0.0;
};

std::string backend_spec(const std::string& kind, const std::string& dir) {
  if (kind == "memory") return "memory";
  if (kind == "log") return "log:" + dir + "/log_store?shards=8";
  std::cerr << "error: unknown backend '" << kind
            << "' (known: memory, log)\n";
  std::exit(2);
}

struct ScalingRow {
  std::string backend;  ///< a backend kind, or "medium"
  int committers = 0;
  double wall_s = std::numeric_limits<double>::infinity();  ///< best round
  double commit_MBps = 0.0;  ///< aggregate across all committers
};

/// Commits each storm thread makes per round.
constexpr int kStormPerThread = 8;

/// Run fn(t) for t in [0, n) on n threads at once. Returns the wall time
/// from the first spawn to the last join; rethrows the first exception a
/// thread threw, after every thread joined.
template <typename F>
double timed_threads(int n, F fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  std::mutex m;
  std::exception_ptr error;
  const auto t0 = Clock::now();
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        std::lock_guard lock(m);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double wall = seconds_since(t0);
  if (error) std::rethrow_exception(error);
  return wall;
}

/// One commit-storm round: `committers` threads, each committing
/// kStormPerThread snapshots of `payload` against a fresh store in `store`
/// (removed afterwards). Kind "medium" has no store: each thread pwrites and
/// fdatasyncs the same bytes into a private file. Returns the wall time.
double storm_round(const std::string& kind, const std::string& store,
                   int committers, std::span<const std::byte> payload) {
  namespace detail = ckpt::io::detail;
  fs::remove_all(store);
  fs::create_directories(store);
  double wall = 0.0;
  if (kind == "medium") {
    wall = timed_threads(committers, [&](int t) {
      const std::string path = store + "/medium_" + std::to_string(t);
      const detail::FdGuard fd{
          ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)};
      if (fd.fd < 0) detail::sys_error("create " + path);
      for (int c = 0; c < kStormPerThread; ++c) {
        detail::pwrite_all(fd.fd, payload.data(), payload.size(),
                           c * payload.size(), "medium");
        if (::fdatasync(fd.fd) != 0) detail::sys_error("fdatasync " + path);
      }
    });
  } else {
    ckpt::io::SnapshotBlob proto;
    proto.meta.kind = ckpt::CkptKind::Full;
    proto.meta.bytes = payload.size();
    ckpt::io::RegionBlob region;
    region.region = 1;
    region.crc = common::crc32(payload);
    region.payload.assign(payload.begin(), payload.end());
    proto.regions.push_back(std::move(region));

    // One blob per thread, copied before the clock starts: the round times
    // commits, not a 4 MB memcpy per thread.
    std::vector<ckpt::io::SnapshotBlob> blobs(committers, proto);
    auto backend = ckpt::io::make_backend(backend_spec(kind, store));
    const bool concurrent = backend->concurrent_committers();
    std::mutex serial;
    wall = timed_threads(committers, [&](int t) {
      ckpt::io::SnapshotBlob& blob = blobs[t];
      for (int c = 0; c < kStormPerThread; ++c) {
        blob.meta.id = static_cast<ckpt::CkptId>(t * kStormPerThread + c + 1);
        blob.meta.when = static_cast<double>(blob.meta.id);
        if (concurrent) {
          backend->write_snapshot(blob);
        } else {
          std::lock_guard lock(serial);
          backend->write_snapshot(blob);
        }
      }
    });
  }
  fs::remove_all(store);
  return wall;
}

struct DistShapeRow {
  std::string backend;
  std::size_t bytes = 0;
  double append_s = 0.0;        ///< the payload stream's append() calls
  double seal_s = 0.0;          ///< WriteSession::commit()
  double restore_blob_s = 0.0;  ///< latest_restorable + copy into the spans
  double restore_into_s = 0.0;  ///< restore_latest_into the spans
};

/// One dist-shape cell: commit a dist-sized snapshot through a session
/// (appends and seal timed apart), restore it both ways into the same
/// destination spans, drop it; best of `reps`.
DistShapeRow dist_shape_cell(const std::string& kind, const std::string& dir,
                             int reps) {
  const std::size_t sizes[] = {16, 288 * 1024, 192 * 1024, 192 * 1024};
  std::vector<std::vector<std::byte>> src;
  std::vector<std::uint32_t> crcs;
  std::size_t total = 0;
  for (const std::size_t n : sizes) {
    std::vector<std::byte>& r = src.emplace_back(n);
    for (std::size_t i = 0; i < n; ++i)
      r[i] = static_cast<std::byte>(((i + total) * 2654435761u) >> 17);
    crcs.push_back(common::crc32(std::span(r)));
    total += n;
  }
  std::vector<std::byte> dst(total);
  std::vector<std::span<std::byte>> spans;
  for (std::size_t off = 0; const std::size_t n : sizes) {
    spans.emplace_back(dst.data() + off, n);
    off += n;
  }

  DistShapeRow row;
  row.backend = kind;
  row.bytes = total;
  row.append_s = row.seal_s = std::numeric_limits<double>::infinity();
  row.restore_blob_s = row.restore_into_s = row.append_s;
  const std::string store = dir + "/dist_shape_" + kind;
  fs::remove_all(store);
  fs::create_directories(store);
  auto backend = ckpt::io::make_backend(backend_spec(kind, store));
  for (int rep = 0; rep < reps; ++rep) {
    ckpt::io::SnapshotMeta meta;
    meta.id = static_cast<ckpt::CkptId>(rep + 1);
    meta.when = static_cast<double>(rep);
    meta.bytes = total;
    std::vector<ckpt::RegionId> ids{0, 1, 2, 3};
    auto session = backend->begin_snapshot(
        meta, ids, std::vector<std::uint64_t>(std::begin(sizes),
                                              std::end(sizes)));
    auto t0 = Clock::now();
    for (const auto& r : src) session->append(std::span(r));
    row.append_s = std::min(row.append_s, seconds_since(t0));
    t0 = Clock::now();
    session->commit(crcs);
    row.seal_s = std::min(row.seal_s, seconds_since(t0));
    session.reset();

    t0 = Clock::now();
    const auto blob = ckpt::io::latest_restorable(*backend);
    if (!blob) throw ckpt::io::io_error("dist-shape snapshot did not restore");
    for (const ckpt::io::RegionBlob& r : blob->regions)
      std::memcpy(spans[r.region].data(), r.payload.data(), r.payload.size());
    row.restore_blob_s = std::min(row.restore_blob_s, seconds_since(t0));
    t0 = Clock::now();
    if (!ckpt::io::restore_latest_into(*backend, spans))
      throw ckpt::io::io_error("dist-shape snapshot did not restore in place");
    row.restore_into_s = std::min(row.restore_into_s, seconds_since(t0));
    backend->drop(meta.id);
  }
  backend.reset();
  fs::remove_all(store);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const auto backends =
      args.get_list("backends", {"memory", "log"});
  const auto sizes_mb = args.get_double_list("sizes-mb", {2, 8, 32});
  const auto committer_counts =
      args.get_double_list("committers", {1, 2, 4, 8});
  const double commit_mb = args.get_double("commit-mb", 4.0);
  const int reps = static_cast<int>(args.get_int("reps", 4));
  const std::string dir =
      args.get_string("dir", (fs::temp_directory_path() / "abftc_ckpt_io")
                                 .string());
  const std::size_t chunk_bytes =
      static_cast<std::size_t>(args.get_int("chunk-kb", 1024)) * 1024;
  const std::string out_path = args.get_string("out", "BENCH_ckpt_io.json");
  args.warn_unknown(std::cerr);

  fs::create_directories(dir);
  std::size_t largest = 0;
  for (const double mb : sizes_mb)
    largest = std::max(largest,
                       static_cast<std::size_t>(mb * 1024.0 * 1024.0));

  // Scratch image data: 70% LIBRARY + 30% REMAINDER, non-trivial bytes so
  // neither the CRC nor compression-happy filesystems can shortcut.
  std::vector<std::byte> lib(largest * 7 / 10), rem(largest - lib.size());
  for (std::size_t i = 0; i < lib.size(); ++i)
    lib[i] = static_cast<std::byte>((i * 2654435761u) >> 13);
  for (std::size_t i = 0; i < rem.size(); ++i)
    rem[i] = static_cast<std::byte>((i * 40503u) >> 7);

  std::vector<Row> rows;
  double best_speedup = 0.0;
  for (const std::string& kind : backends) {
    auto backend = ckpt::io::make_backend(backend_spec(kind, dir));
    double when = 1.0;
    for (const double mb : sizes_mb) {
      const auto bytes = static_cast<std::size_t>(mb * 1024.0 * 1024.0);
      Row row;
      row.backend = kind;
      row.bytes = bytes;
      row.serial_s = std::numeric_limits<double>::infinity();
      row.async_s = std::numeric_limits<double>::infinity();
      row.restore_s = std::numeric_limits<double>::infinity();

      for (const bool async : {false, true}) {
        ckpt::io::WriterOptions opts;
        opts.chunk_bytes = chunk_bytes;
        opts.async = async;
        ckpt::io::CkptWriter writer(*backend, opts);
        for (int rep = 0; rep < reps; ++rep) {
          ckpt::MemoryImage image;
          image.add_region("lib", std::span(lib.data(), bytes * 7 / 10),
                           ckpt::RegionClass::Library);
          image.add_region("rem",
                           std::span(rem.data(), bytes - bytes * 7 / 10),
                           ckpt::RegionClass::Remainder);
          auto t0 = Clock::now();
          const ckpt::CkptId id = writer.take_full(image, when);
          const double commit = seconds_since(t0);
          (async ? row.async_s : row.serial_s) =
              std::min(async ? row.async_s : row.serial_s, commit);
          when += 1.0;

          t0 = Clock::now();
          (void)writer.restore_latest(image);
          row.restore_s = std::min(row.restore_s, seconds_since(t0));
          backend->drop(id);
        }
      }
      best_speedup = std::max(best_speedup, row.serial_s / row.async_s);
      rows.push_back(row);
    }
  }

  // Commit-storm scenario: fixed snapshot size, varying committer count.
  const auto commit_bytes =
      static_cast<std::size_t>(commit_mb * 1024.0 * 1024.0);
  std::vector<std::byte> storm(commit_bytes);
  for (std::size_t i = 0; i < storm.size(); ++i)
    storm[i] = static_cast<std::byte>((i * 2246822519u) >> 11);
  std::vector<std::string> storm_kinds = backends;
  storm_kinds.push_back("medium");
  std::vector<ScalingRow> scaling;
  for (const std::string& kind : storm_kinds)
    for (const double c : committer_counts)
      scaling.push_back({kind, static_cast<int>(c)});
  // Odd reps run the cells in reverse, so each side of a store/medium pair
  // runs first in half the reps.
  for (int rep = 0; rep < reps; ++rep)
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      ScalingRow& row =
          scaling[rep % 2 == 0 ? i : scaling.size() - 1 - i];
      row.wall_s = std::min(
          row.wall_s, storm_round(row.backend, dir + "/cscale_" + row.backend,
                                  row.committers, std::span(storm)));
    }
  for (ScalingRow& row : scaling)
    row.commit_MBps = (static_cast<double>(commit_bytes) * row.committers *
                       kStormPerThread / (1024.0 * 1024.0)) /
                      row.wall_s;

  std::vector<DistShapeRow> dist_rows;
  for (const std::string& kind : backends)
    dist_rows.push_back(dist_shape_cell(kind, dir, std::max(reps, 8)));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open '" << out_path << "' for writing\n";
    return 2;
  }
  common::JsonWriter json(out);
  json.begin_object();
  json.kv("bench", "ckpt_io");
  json.kv("chunk_bytes", chunk_bytes);
  json.kv("reps", reps);
  json.kv("hardware_threads", common::hardware_workers());
  json.kv("best_async_speedup", best_speedup);
  json.key("results").begin_array();
  for (const Row& r : rows) {
    const auto mbytes = static_cast<double>(r.bytes) / (1024.0 * 1024.0);
    json.begin_object();
    json.kv("backend", r.backend);
    json.kv("bytes", r.bytes);
    json.kv("serial_ms", r.serial_s * 1e3);
    json.kv("async_ms", r.async_s * 1e3);
    json.kv("async_speedup", r.serial_s / r.async_s);
    json.kv("commit_MBps", mbytes / r.async_s);
    json.kv("restore_MBps", mbytes / r.restore_s);
    json.end_object();
  }
  json.end_array();
  json.kv("commit_mb", commit_mb);
  json.key("committer_scaling").begin_array();
  for (const ScalingRow& r : scaling) {
    json.begin_object();
    json.kv("backend", r.backend);
    json.kv("committers", r.committers);
    json.kv("wall_s", r.wall_s);
    json.kv("commit_MBps", r.commit_MBps);
    json.end_object();
  }
  json.end_array();
  json.key("dist_shape").begin_array();
  for (const DistShapeRow& r : dist_rows) {
    json.begin_object();
    json.kv("backend", r.backend);
    json.kv("bytes", r.bytes);
    json.kv("append_ms", r.append_s * 1e3);
    json.kv("seal_ms", r.seal_s * 1e3);
    json.kv("seal_over_append", r.seal_s / r.append_s);
    json.kv("restore_blob_ms", r.restore_blob_s * 1e3);
    json.kv("restore_into_ms", r.restore_into_s * 1e3);
    json.kv("into_over_blob", r.restore_into_s / r.restore_blob_s);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  for (const Row& r : rows)
    std::cout << r.backend << " " << r.bytes / (1024 * 1024) << "MiB"
              << " serial=" << r.serial_s * 1e3 << "ms"
              << " async=" << r.async_s * 1e3 << "ms"
              << " speedup=" << r.serial_s / r.async_s
              << " restore=" << (static_cast<double>(r.bytes) / (1024.0 * 1024.0)) / r.restore_s
              << "MB/s\n";
  for (const ScalingRow& r : scaling)
    std::cout << r.backend << " committers=" << r.committers
              << " wall=" << r.wall_s * 1e3 << "ms"
              << " aggregate=" << r.commit_MBps << "MB/s\n";
  for (const DistShapeRow& r : dist_rows)
    std::cout << r.backend << " dist-shape " << r.bytes << "B"
              << " append=" << r.append_s * 1e3 << "ms"
              << " seal=" << r.seal_s * 1e3 << "ms"
              << " restore blob=" << r.restore_blob_s * 1e3 << "ms"
              << " in-place=" << r.restore_into_s * 1e3 << "ms\n";
  std::cout << "best async-over-serial speedup " << best_speedup
            << "x; wrote " << out_path << "\n";
  return 0;
}
