/// \file micro_ckpt_io.cpp
/// Checkpoint I/O microbenchmark: commit latency and restore bandwidth per
/// storage backend (memory / log) at several image sizes,
/// comparing the serial copy→CRC→write reference against the CkptWriter
/// pipeline that overlaps the CRC with backend writes.
///
///   micro_ckpt_io --backends=memory,log --sizes-mb=2,8,32
///                 --reps=4 --dir=/tmp/abftc_ckpt_io --chunk-kb=1024
///                 --out=BENCH_ckpt_io.json
///
/// Per (backend, size) the artifact reports best-of-reps serial and async
/// commit times, the speedup `serial_ms / async_ms`, and restore bandwidth;
/// `best_async_speedup` is the maximum speedup observed (CI gates it — the
/// pipeline must beat write-then-CRC somewhere — and skips the gate on
/// single-core runners where there is no second core to hide the CRC on).
///
/// A second scenario takes one snapshot shaped like the dist runtime's Full
/// record at n=192, nb=32 (16 B progress + 6 block-row regions of 49,152 B;
/// the accumulators are re-encoded on restore, not stored) per backend. The
/// `dist_shape` block reports, best of reps, the payload appends against
/// the seal (WriteSession::commit: table, trailer, flush), and a restore
/// straight into the destination spans (restore_latest_into) against
/// latest_restorable plus a copy into the same spans. CI gates the log
/// backend's seal ≤ 0.25× its appends and its in-place restore ≤ 0.75× the
/// blob restore.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/io/backend.hpp"
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
  if (kind == "log") return "log:" + dir + "/log_store";
  std::cerr << "error: unknown backend '" << kind
            << "' (known: memory, log)\n";
  std::exit(2);
}

struct DistShapeRow {
  std::string backend;
  std::size_t bytes = 0;
  double append_s = 0.0;        ///< the payload stream's append() calls
  double seal_s = 0.0;          ///< WriteSession::commit()
  double restore_blob_s = 0.0;  ///< latest_restorable + copy into the spans
  double restore_into_s = 0.0;  ///< restore_latest_into the spans
};

/// One dist-shape cell: commit a dist-sized Full record through a session
/// (appends and seal timed apart), restore it both ways into the same
/// destination spans, drop it; best of `reps`. Region 0 is the progress
/// record, region 1 + j block row j (nb·n doubles at n=192, nb=32).
DistShapeRow dist_shape_cell(const std::string& kind, const std::string& dir,
                             int reps) {
  constexpr std::size_t kRow = 32 * 192 * sizeof(double);
  const std::vector<std::size_t> sizes{16, kRow, kRow, kRow,
                                       kRow, kRow, kRow};
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
    std::vector<ckpt::RegionId> ids(sizes.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
      ids[i] = static_cast<ckpt::RegionId>(i);
    auto session = backend->begin_snapshot(
        meta, ids, std::vector<std::uint64_t>(sizes.begin(), sizes.end()));
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
