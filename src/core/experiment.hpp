#pragma once
/// \file experiment.hpp
/// The unified experiment engine: evaluate {analytical model, Monte-Carlo
/// simulator, future evaluators} × {protocols} over a declarative
/// ScenarioSweep, in parallel, streaming rows into pluggable ResultSinks.
///
/// One experiment is a grid of cells (from sweep.hpp) crossed with a list
/// of Series — (protocol, evaluator, options) triples. `Experiment::run()`
/// executes the cells on common::parallel_for and returns every cell's
/// EvalResult in deterministic grid order; results are bitwise identical
/// for any thread count because randomness lives in per-replicate
/// Rng::split streams inside the evaluators, never in the scheduling.
///
/// Evaluators are looked up by name in a process-global registry
/// ("model", "sim" built in), so a new backend — a Weibull-clock variant, a
/// GPU-backed simulator — plugs into every bench binary by registering
/// itself and being named in a Series.

#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/monte_carlo.hpp"
#include "core/sweep.hpp"

namespace abftc::common {
class ArgParser;   // defined in common/cli.hpp
class JsonWriter;  // defined in common/json.hpp
}

namespace abftc::core {

/// The uniform outcome of one (cell, series) evaluation. Fields not
/// produced by an evaluator keep their defaults (e.g. waste_stderr is
/// sim-only, periods are model-only).
struct EvalResult {
  bool valid = true;      ///< false: protocol infeasible on this scenario
  bool diverged = false;  ///< model predicts waste = 1 (no feasible period)
  double waste = 1.0;
  double t_final = 0.0;
  double failures = 0.0;  ///< expected (model) / mean (sim) failure count
  double period_general = 0.0;
  double period_library = 0.0;
  bool abft_active = false;
  bool bi_stream = false;
  double waste_stderr = 0.0;  ///< sim: standard error of the waste mean
  double lost = 0.0;          ///< sim: mean lost time per run

  /// Waste quantiles over the Monte-Carlo replicates (sim-only, and only
  /// when the spec opts into quantile emission). NaN = not computed — the
  /// JSON sink renders that as null, which is what the model series show.
  double waste_p50 = std::numeric_limits<double>::quiet_NaN();
  double waste_p95 = std::numeric_limits<double>::quiet_NaN();
  double waste_p99 = std::numeric_limits<double>::quiet_NaN();
  /// Fixed-bin waste histogram over [0, 1], normalized to fractions of the
  /// replicate count; empty when not computed.
  std::vector<double> waste_hist;
};

/// Named metric accessor, for generic renderers and sinks.
enum class Metric {
  Waste,
  TFinal,
  Failures,
  Valid,  ///< 1.0 / 0.0
  PeriodGeneral,
  PeriodLibrary,
  AbftActive,  ///< 1.0 / 0.0
  WasteStderr,
  Lost,
  WasteP50,
  WasteP95,
  WasteP99,
};

[[nodiscard]] double metric_value(const EvalResult& r, Metric m) noexcept;
[[nodiscard]] std::string_view to_string(Metric m) noexcept;

/// Per-evaluation knobs passed to an Evaluator.
struct EvalContext {
  ModelOptions model;
  MonteCarloOptions mc;
  /// Non-zero: compute waste_p50/p95/p99 and a histogram with this many
  /// bins over the replicate sample (sim evaluator; forces
  /// mc.collect_waste_sample). Set by Experiment::run() from
  /// ExperimentSpec::emit_quantiles.
  std::size_t quantile_hist_bins = 0;
};

/// A protocol-evaluation backend. Implementations must be thread-safe:
/// `evaluate` is called concurrently from grid workers.
class Evaluator {
 public:
  virtual ~Evaluator() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual EvalResult evaluate(Protocol p,
                                            const ScenarioParams& s,
                                            const EvalContext& ctx) const = 0;
};

/// Process-global evaluator registry. "model" (analytical, Section IV) and
/// "sim" (Monte-Carlo, Section V-A) are pre-registered. Lookups hand out
/// shared ownership so a replaced evaluator stays alive for experiments
/// that already resolved it.
///
/// Concurrency contract (audited for multi-tenant service use): `find`/
/// `at`/`names` may be called from any number of threads at any time — the
/// registry map is mutex-guarded and lookups copy a shared_ptr, so
/// concurrent `Experiment::run` calls (e.g. sweep-service worker threads)
/// never observe a half-registered entry and never race an evaluator's
/// destruction. `add` is *setup-time*: it is itself thread-safe, but an
/// experiment admitted before a replacement keeps evaluating on the
/// evaluator it resolved — two concurrent runs of the same spec across a
/// replacement may therefore use different evaluators. Register every
/// custom evaluator before serving traffic. Evaluator::evaluate must be
/// const-thread-safe (it is called concurrently from grid workers of
/// multiple experiments); the built-ins are stateless.
class EvaluatorRegistry {
 public:
  static EvaluatorRegistry& instance();

  /// Register under e->name(); replaces an existing evaluator of that name.
  void add(std::unique_ptr<Evaluator> e);
  /// nullptr when no evaluator of that name exists.
  [[nodiscard]] std::shared_ptr<const Evaluator> find(
      std::string_view name) const;
  /// find() that throws a precondition_error naming the known evaluators.
  [[nodiscard]] std::shared_ptr<const Evaluator> at(
      std::string_view name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  EvaluatorRegistry();
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// One result column group: a protocol evaluated by a named evaluator
/// under fixed options. `label` prefixes the sink columns
/// ("model_pure.waste", ...).
struct Series {
  std::string label;
  Protocol protocol{};
  std::string evaluator;  ///< registry name: "model", "sim", ...
  ModelOptions model{};
  MonteCarloOptions mc{};
};

/// Short stable key for a protocol: "pure", "bi", "abft".
[[nodiscard]] std::string_view protocol_key(Protocol p) noexcept;

/// The paper's three protocols in canonical order (Pure, Bi, ABFT&) — the
/// default protocol set of every figure and ablation.
[[nodiscard]] const std::vector<Protocol>& all_protocols() noexcept;

/// The usual cross product: one Series per (evaluator, protocol), labelled
/// "<evaluator>_<protocol_key>", in evaluator-major order.
[[nodiscard]] std::vector<Series> cross_series(
    const std::vector<Protocol>& protocols,
    const std::vector<std::string>& evaluators, const ModelOptions& model = {},
    const MonteCarloOptions& mc = {});

/// A full experiment: grid × series.
struct ExperimentSpec {
  std::string name;  ///< artifact key, e.g. "fig7" -> BENCH_fig7.json
  ScenarioSweep sweep;
  std::vector<Series> series;
  unsigned threads = 0;  ///< grid-cell parallelism; 0 = hardware concurrency
  /// Emit the resolved worker count as a "threads" key in JSON sink
  /// metadata. Off by default so BENCH_*.json artifacts stay byte-identical
  /// across worker counts (and to their pre-executor shape).
  bool emit_thread_meta = false;
  /// Opt-in tail metrics: append waste_p50/p95/p99 and a fixed-bin waste
  /// histogram (quantile_hist_bins columns, fractions of replicates in
  /// [b/bins, (b+1)/bins)) per series to every sink row, computed over the
  /// Monte-Carlo replicate sample. Off by default so existing BENCH_*.json
  /// artifacts stay byte-identical; model series emit null (no sample).
  bool emit_quantiles = false;
  std::size_t quantile_hist_bins = 8;

  void validate() const;
};

/// One evaluated grid cell.
struct CellRecord {
  std::size_t index = 0;             ///< grid order (sweep row-major)
  std::vector<double> axis_values;   ///< aligned with sweep.axes
  std::vector<EvalResult> series;    ///< aligned with spec.series
};

/// Everything a renderer needs: the sweep (axis names/grids, scenarios) and
/// the cells in deterministic grid order.
struct ExperimentResult {
  std::string name;
  ScenarioSweep sweep;
  std::vector<std::string> series_labels;
  std::vector<CellRecord> cells;
  /// Grid workers `spec.threads` resolved to (cached hardware concurrency
  /// for 0). Metadata only — cells are identical for any worker count.
  unsigned resolved_threads = 0;

  [[nodiscard]] std::size_t series_index(std::string_view label) const;
  /// Metric of one series across all cells, in grid order.
  [[nodiscard]] std::vector<double> column(std::size_t series,
                                           Metric m) const;
  /// 2-axis cartesian sweeps: values[axis0_index][axis1_index].
  [[nodiscard]] std::vector<std::vector<double>> grid(std::size_t series,
                                                      Metric m) const;
};

/// Column layout shared by all sinks: axis columns first, then
/// `<series_label>.<metric>` for every series × kSinkMetrics.
struct SinkHeader {
  std::string experiment;
  std::vector<std::string> columns;
  std::size_t axis_count = 0;
  /// Resolved grid worker count; 0 = omit from sink metadata (the default:
  /// set only when ExperimentSpec::emit_thread_meta is on).
  unsigned resolved_threads = 0;
};

/// The metrics every sink row carries per series.
inline constexpr Metric kSinkMetrics[] = {Metric::Waste, Metric::TFinal,
                                          Metric::Failures, Metric::Valid};

/// Resolve every `spec.series[i].evaluator` from the registry, in series
/// order. Shared ownership keeps the evaluators alive even if a registry
/// entry is replaced mid-run. Throws precondition_error on unknown names.
[[nodiscard]] std::vector<std::shared_ptr<const Evaluator>> resolve_evaluators(
    const ExperimentSpec& spec);

/// The per-evaluator thread budget Experiment::run grants each cell: 1 when
/// the grid has at least as many cells as workers, else the leftover
/// workers split across cells. Determinism never depends on it (randomness
/// is per-replicate Rng::split) — it only bounds nested parallelism.
[[nodiscard]] unsigned inner_thread_budget(std::size_t n_cells,
                                           unsigned workers) noexcept;

/// Evaluate one grid cell — the engine's per-cell loop body, exposed so
/// external schedulers (the sweep service batching cells of *several*
/// experiments into one loop) produce bitwise-identical
/// records. `evaluators` must be resolve_evaluators(spec);
/// `inner_threads` is the evaluator thread budget (0 = keep the series'
/// own request).
[[nodiscard]] CellRecord evaluate_cell(
    const ExperimentSpec& spec,
    const std::vector<std::shared_ptr<const Evaluator>>& evaluators,
    std::size_t cell, unsigned inner_threads);

/// Flatten one evaluated cell into the sink row for header_for(spec): axis
/// values first, then kSinkMetrics (and quantile/histogram columns when the
/// spec opts in) per series. The single row-assembly used by
/// Experiment::run and the sweep service — identical values by
/// construction.
[[nodiscard]] std::vector<double> sink_row_values(const ExperimentSpec& spec,
                                                  const CellRecord& cell);

/// Streaming consumer of experiment rows. begin/row*/end are called on the
/// driving thread, in grid order, after all cells have been computed.
/// (The sweep service instead calls them *while* cells complete — still
/// serialized per sink and still in grid order, which is all
/// implementations may assume.)
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void begin(const SinkHeader& header) = 0;
  virtual void row(const SinkHeader& header,
                   const std::vector<double>& values) = 0;
  virtual void end(const SinkHeader& header) = 0;
};

/// Pretty right-aligned table on an ostream (common::Table).
class TableSink : public ResultSink {
 public:
  explicit TableSink(std::ostream& os, int precision = 5);
  void begin(const SinkHeader& header) override;
  void row(const SinkHeader& header,
           const std::vector<double>& values) override;
  void end(const SinkHeader& header) override;

 private:
  std::ostream& os_;
  int precision_;
  std::vector<std::vector<std::string>> rows_;
};

/// RFC-4180-ish CSV with full-precision (round-trip) numbers.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(std::ostream& os);
  void begin(const SinkHeader& header) override;
  void row(const SinkHeader& header,
           const std::vector<double>& values) override;
  void end(const SinkHeader& header) override;

  /// Opt-in streaming mode: flush the ostream after the header and after
  /// every row() so live consumers (service clients tailing a socket or a
  /// drop-directory file) see each result as it lands. Off by default —
  /// buffered emission and the emitted bytes are unchanged either way.
  void set_row_flush(bool enabled) noexcept { row_flush_ = enabled; }

 private:
  std::ostream& os_;
  bool row_flush_ = false;
};

/// BENCH_*.json-compatible artifact:
///   {"bench": <name>, "axes": [...], "columns": [...],
///    "results": [{"<col>": <num>, ...}, ...]}
/// Non-finite values are emitted as null.
class JsonSink : public ResultSink {
 public:
  explicit JsonSink(std::ostream& os);
  /// Convenience: open `path` for writing (throws precondition_error on
  /// failure) and emit there.
  explicit JsonSink(const std::string& path);
  ~JsonSink() override;

  void begin(const SinkHeader& header) override;
  void row(const SinkHeader& header,
           const std::vector<double>& values) override;
  void end(const SinkHeader& header) override;

  /// Opt-in streaming mode: flush the ostream after begin() and after every
  /// row() (see CsvSink::set_row_flush). The JSON bytes are identical to
  /// the buffered default.
  void set_row_flush(bool enabled) noexcept { row_flush_ = enabled; }

 private:
  struct FileState;
  std::unique_ptr<FileState> file_;  ///< set when constructed from a path
  std::ostream* os_;
  std::unique_ptr<common::JsonWriter> json_;
  bool row_flush_ = false;
};

/// Shared driver idiom for the `--json[=PATH]` flag: nullptr when the flag
/// is absent, else a JsonSink on PATH (or `BENCH_<bench_name>.json` when
/// the flag is bare). Reads the flag, so call before ArgParser::unknown().
[[nodiscard]] std::unique_ptr<JsonSink> json_sink_from_args(
    const common::ArgParser& args, std::string_view bench_name);

/// Shared driver idiom for the `--threads=N` flag: grid-cell parallelism
/// for ExperimentSpec::threads. 0 (the default) = hardware concurrency.
/// Reads the flag, so call before ArgParser::unknown()/warn_unknown().
[[nodiscard]] unsigned threads_from_args(const common::ArgParser& args);

/// Shared driver idiom for the `--seed=N` flag: the root of every random
/// stream a driver touches (Monte-Carlo replicates, campaign fault sites).
/// The default is the MonteCarloOptions default seed, so omitting the flag
/// reproduces the canonical artifacts; re-running with the same --seed
/// replays the identical fault/replicate sequence.
[[nodiscard]] std::uint64_t seed_from_args(
    const common::ArgParser& args, std::uint64_t def = 0xABF7C0DEULL);

/// Run a declarative experiment: every sweep cell × every series, in
/// parallel over cells, then stream rows to the attached sinks.
class Experiment {
 public:
  explicit Experiment(ExperimentSpec spec);

  /// Attach a sink (non-owning; must outlive run()).
  Experiment& add_sink(ResultSink& sink);

  [[nodiscard]] const ExperimentSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] static SinkHeader header_for(const ExperimentSpec& spec);

  /// Execute. Deterministic: the returned cells (and sink rows) are
  /// identical for any `spec.threads`.
  [[nodiscard]] ExperimentResult run() const;

 private:
  ExperimentSpec spec_;
  std::vector<ResultSink*> sinks_;
};

}  // namespace abftc::core
