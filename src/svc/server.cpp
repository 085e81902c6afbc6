#include "svc/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "svc/net.hpp"

namespace abftc::svc {

namespace fs = std::filesystem;

namespace {

/// streambuf that turns every flush into one length-prefixed `data` frame
/// on the connection fd. Frames are held back until enable() — the `ok`
/// admission line must precede the first frame, and the coordinator may
/// start streaming before the connection thread has written it. A write
/// failure (client gone) marks the stream broken; later writes are
/// swallowed so sink emission never throws into the batch loop, and the
/// connection thread observes broken() to cancel the request.
class FrameBuf final : public std::streambuf {
 public:
  explicit FrameBuf(int fd) : fd_(fd) {}

  [[nodiscard]] bool broken() const noexcept {
    return broken_.load(std::memory_order_relaxed);
  }

  /// Allow frames onto the wire (called once the `ok` line is out) and
  /// release anything buffered before that point.
  void enable() {
    std::lock_guard lock(mu_);
    enabled_ = true;
    emit_locked();
  }

 protected:
  int overflow(int ch) override {
    std::lock_guard lock(mu_);
    if (ch != traits_type::eof()) buf_.push_back(static_cast<char>(ch));
    if (buf_.size() >= kFrameTarget) emit_locked();
    return broken() ? traits_type::eof() : ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard lock(mu_);
    buf_.append(s, static_cast<std::size_t>(n));
    if (buf_.size() >= kFrameTarget) emit_locked();
    return n;
  }

  int sync() override {
    std::lock_guard lock(mu_);
    emit_locked();
    return 0;  // a broken peer must not abort the batch loop
  }

 private:
  static constexpr std::size_t kFrameTarget = 56 * 1024;

  void emit_locked() {
    if (!enabled_ || buf_.empty()) return;
    if (!broken()) {
      const std::string header = "data " + std::to_string(buf_.size());
      if (!write_line(fd_, header) ||
          !write_all(fd_, buf_.data(), buf_.size())) {
        broken_.store(true, std::memory_order_relaxed);
      }
    }
    buf_.clear();
  }

  int fd_;
  std::mutex mu_;
  std::string buf_;
  bool enabled_ = false;
  std::atomic<bool> broken_{false};
};

std::string err_line(const std::string& code, const std::string& msg) {
  return "err code=" + code + " msg=" + one_line(msg);
}

void append_counters(std::string& out, const common::ExecutorCounters& c) {
  out += "{\"chunks_claimed\":" + std::to_string(c.chunks_claimed) +
         ",\"tasks_stolen\":" + std::to_string(c.tasks_stolen) +
         ",\"parks\":" + std::to_string(c.parks) +
         ",\"unparks\":" + std::to_string(c.unparks) + "}";
}

}  // namespace

std::string trailer_json(const RequestMetrics& m) {
  std::string out = "{\"id\":" + std::to_string(m.id) + ",\"name\":\"" +
                    m.name + "\",\"cells\":" + std::to_string(m.cells) +
                    ",\"cells_run\":" + std::to_string(m.cells_run) +
                    ",\"rows_flushed\":" + std::to_string(m.rows_flushed) +
                    ",\"batch_requests\":" +
                    std::to_string(m.batch_requests) + ",\"queue_wait_s\":" +
                    common::JsonWriter::number(m.queue_wait_s) +
                    ",\"wall_s\":" + common::JsonWriter::number(m.wall_s) +
                    ",\"cancelled\":" + (m.cancelled ? "true" : "false") +
                    ",\"exec\":";
  append_counters(out, m.exec);
  out += "}";
  return out;
}

// ---- Server ----------------------------------------------------------------

struct SweepServer::Impl {
  ServerConfig cfg;
  std::unique_ptr<SweepService> service;
  Fd unix_listener;
  Fd tcp_listener;
  int bound_tcp_port = -1;
  std::atomic<bool> stop{false};
  std::thread unix_thread, tcp_thread, scan_thread;
  std::mutex conn_mu;
  std::vector<std::thread> connections;
  bool started = false;
  bool stopped = false;

  explicit Impl(ServerConfig c) : cfg(std::move(c)) {}

  void accept_loop(int listen_fd);
  void handle_connection(Fd fd);
  void scan_loop();
  void serve_request(int fd, const std::string& line);
};

SweepServer::SweepServer(ServerConfig cfg)
    : impl_(std::make_unique<Impl>(std::move(cfg))) {}

SweepServer::~SweepServer() { stop(); }

int SweepServer::tcp_port() const noexcept { return impl_->bound_tcp_port; }

ServiceTotals SweepServer::totals() const {
  return impl_->service ? impl_->service->totals() : ServiceTotals{};
}

std::string SweepServer::totals_json() const {
  const ServiceTotals t = totals();
  return "{\"admitted\":" + std::to_string(t.admitted) +
         ",\"rejected_full\":" + std::to_string(t.rejected_full) +
         ",\"completed\":" + std::to_string(t.completed) +
         ",\"cancelled\":" + std::to_string(t.cancelled) +
         ",\"failed\":" + std::to_string(t.failed) +
         ",\"batches\":" + std::to_string(t.batches) +
         ",\"cells_evaluated\":" + std::to_string(t.cells_evaluated) +
         ",\"rows_flushed\":" + std::to_string(t.rows_flushed) + "}";
}

void SweepServer::start() {
  if (impl_->started) return;
  impl_->started = true;
  // A client that disconnects mid-stream must surface as a write error,
  // not a process-killing SIGPIPE (send() also passes MSG_NOSIGNAL, but
  // the ignore covers any plain write path).
  std::signal(SIGPIPE, SIG_IGN);
  impl_->service = std::make_unique<SweepService>(impl_->cfg.service);
  if (!impl_->cfg.unix_path.empty()) {
    impl_->unix_listener = listen_unix(impl_->cfg.unix_path);
    impl_->unix_thread = std::thread(
        [impl = impl_.get()] { impl->accept_loop(impl->unix_listener.get()); });
  }
  if (impl_->cfg.tcp_port >= 0) {
    impl_->tcp_listener = listen_tcp(impl_->cfg.tcp_port,
                                     impl_->bound_tcp_port);
    impl_->tcp_thread = std::thread(
        [impl = impl_.get()] { impl->accept_loop(impl->tcp_listener.get()); });
  }
  if (!impl_->cfg.queue_dir.empty()) {
    fs::create_directories(impl_->cfg.queue_dir);
    impl_->scan_thread = std::thread([impl = impl_.get()] {
      impl->scan_loop();
    });
  }
}

void SweepServer::stop() {
  if (!impl_->started || impl_->stopped) return;
  impl_->stopped = true;
  impl_->stop.store(true, std::memory_order_relaxed);
  if (impl_->unix_thread.joinable()) impl_->unix_thread.join();
  if (impl_->tcp_thread.joinable()) impl_->tcp_thread.join();
  if (impl_->scan_thread.joinable()) impl_->scan_thread.join();
  {
    // Connection threads notice the stop flag between commands and finish
    // their in-flight request first (graceful drain).
    std::lock_guard lock(impl_->conn_mu);
    for (auto& t : impl_->connections)
      if (t.joinable()) t.join();
    impl_->connections.clear();
  }
  if (impl_->service) impl_->service->drain_and_stop();
  impl_->unix_listener.reset();
  impl_->tcp_listener.reset();
  if (!impl_->cfg.unix_path.empty()) ::unlink(impl_->cfg.unix_path.c_str());
}

void SweepServer::Impl::accept_loop(int listen_fd) {
  while (!stop.load(std::memory_order_relaxed)) {
    Fd conn = accept_with_timeout(listen_fd, 100, &stop);
    if (!conn.valid()) continue;
    std::lock_guard lock(conn_mu);
    connections.emplace_back(
        [this, fd = std::move(conn)]() mutable { handle_connection(std::move(fd)); });
  }
}

void SweepServer::Impl::serve_request(int fd, const std::string& line) {
  RequestSpec spec;
  try {
    spec = parse_request_line(line);
  } catch (const svc_error& e) {
    write_line(fd, err_line(e.code(), e.what()));
    return;
  } catch (const std::exception& e) {
    write_line(fd, err_line("bad-request", e.what()));
    return;
  }

  auto frame = std::make_unique<FrameBuf>(fd);
  std::ostream os(frame.get());
  RequestHandle handle;
  try {
    handle = service->submit(spec, make_sink(spec.sink, os, true));
  } catch (const svc_error& e) {
    write_line(fd, err_line(e.code(), e.what()));
    return;
  } catch (const std::exception& e) {
    write_line(fd, err_line("bad-request", e.what()));
    return;
  }

  if (!write_line(fd, "ok id=" + std::to_string(handle.id()) +
                          " cells=" + std::to_string(spec.cells()))) {
    handle.cancel();
  }
  frame->enable();

  // Stream until done, cancelling if the client walks away. Server
  // shutdown does NOT cancel: drain finishes admitted work.
  while (!handle.wait_for(0.05)) {
    if (frame->broken() || peer_closed(fd)) handle.cancel();
  }
  os.flush();  // residual partial frame (e.g. CSV without end-flush)

  const RequestMetrics& m = handle.wait();
  if (m.failed) {
    write_line(fd, err_line(m.error_code, m.error_message));
    return;
  }
  if (m.cancelled) {
    write_line(fd, err_line("cancelled", "request cancelled"));
    return;
  }
  write_line(fd, "trailer " + trailer_json(m));
  write_line(fd, "end id=" + std::to_string(m.id));
}

void SweepServer::Impl::handle_connection(Fd fd) {
  LineReader reader(fd.get());
  std::string line;
  while (!stop.load(std::memory_order_relaxed)) {
    const LineReader::Status status = reader.read_line(line, &stop);
    if (status == LineReader::Status::TooLong) {
      write_line(fd.get(), err_line("line-too-long",
                                    "request line exceeds " +
                                        std::to_string(kMaxLineBytes) +
                                        " bytes"));
      continue;
    }
    if (status != LineReader::Status::Ok) break;
    // Cheap verb dispatch; everything else is the sweep grammar.
    std::string trimmed = line;
    trimmed.erase(0, trimmed.find_first_not_of(" \t\r"));
    if (trimmed.empty()) continue;
    if (trimmed == "ping") {
      write_line(fd.get(), "ok pong");
    } else if (trimmed == "stats") {
      write_line(fd.get(), "ok " + [this] {
        const ServiceTotals t = service->totals();
        return "{\"admitted\":" + std::to_string(t.admitted) +
               ",\"completed\":" + std::to_string(t.completed) +
               ",\"rejected_full\":" + std::to_string(t.rejected_full) +
               ",\"failed\":" + std::to_string(t.failed) +
               ",\"cancelled\":" + std::to_string(t.cancelled) + "}";
      }());
    } else if (trimmed == "quit") {
      write_line(fd.get(), "ok bye");
      break;
    } else {
      serve_request(fd.get(), trimmed);
    }
  }
}

// ---- Drop-directory scanner ------------------------------------------------

void SweepServer::Impl::scan_loop() {
  struct Pending {
    RequestHandle handle;
    std::unique_ptr<std::ofstream> out;
    fs::path stem;  ///< queue_dir/NAME (no extension)
  };
  std::vector<Pending> pending;

  const auto reap = [&](bool wait_all) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (!wait_all && !it->handle.finished()) {
        ++it;
        continue;
      }
      const RequestMetrics& m = it->handle.wait();
      it->out->flush();
      it->out.reset();
      std::ofstream trailer(it->stem.string() + ".trailer.json");
      trailer << trailer_json(m) << '\n';
      fs::remove(fs::path(it->stem.string() + ".work"));
      it = pending.erase(it);
    }
  };

  while (true) {
    const bool stopping = stop.load(std::memory_order_relaxed);

    std::vector<fs::path> reqs;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(cfg.queue_dir, ec))
      if (entry.path().extension() == ".req") reqs.push_back(entry.path());
    std::sort(reqs.begin(), reqs.end());

    for (const auto& req_path : reqs) {
      if (stopping) break;  // a draining server stops claiming new files
      fs::path stem = req_path;
      stem.replace_extension();
      const fs::path work = fs::path(stem.string() + ".work");
      std::error_code rename_ec;
      fs::rename(req_path, work, rename_ec);
      if (rename_ec) continue;  // claimed by someone else / vanished

      std::string line;
      {
        std::ifstream in(work);
        std::getline(in, line);
      }
      const auto reject = [&](const std::string& code,
                              const std::string& msg) {
        std::ofstream err(stem.string() + ".err");
        err << err_line(code, msg) << '\n';
        fs::remove(work);
      };
      RequestSpec spec;
      try {
        spec = parse_request_line(line);
      } catch (const svc_error& e) {
        reject(e.code(), e.what());
        continue;
      } catch (const std::exception& e) {
        reject("bad-request", e.what());
        continue;
      }
      auto out = std::make_unique<std::ofstream>(
          stem.string() + ".out", std::ios::binary | std::ios::trunc);
      if (!*out) {
        reject("sink-error", "cannot open " + stem.string() + ".out");
        continue;
      }
      try {
        Pending p;
        p.handle = service->submit(spec, make_sink(spec.sink, *out, true));
        p.out = std::move(out);
        p.stem = stem;
        pending.push_back(std::move(p));
      } catch (const svc_error& e) {
        if (e.code() == "queue-full") {
          // Backpressure: un-claim and retry on a later scan.
          fs::rename(work, req_path, rename_ec);
        } else {
          reject(e.code(), e.what());
        }
      }
    }

    reap(/*wait_all=*/stopping);
    if (stopping && pending.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg.poll_ms));
  }
}

}  // namespace abftc::svc
