#!/usr/bin/env python3
"""The repository benchmark: one command per workload, every metric by name
and unit, outputs checked for correctness.

    python3 perfbench/run.py --workload lu_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all       # every workload in turn

Workloads: lu_steady, lu_faults, sweep_mix (see perfbench/README.md).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the
workload with spans kept in memory, runs the per-layer replay probes,
reports the per-layer metrics and writes a Chrome trace-event file.

The script builds the C++ binary from this checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs it, and prints a summary, a machine
descriptor and, as the last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
It exits non-zero when any op fails its correctness gate.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("lu_steady", "lu_faults", "sweep_mix")

# name -> unit. Must match BENCHMARK.json (a test checks it).
END_TO_END = {
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "dist.step_s": "s",
    "dist.step_ms_p50": "ms",
    "dist.hop_us_p50": "us",
    "dist.other_s": "s",
    "dist.restore_ms": "ms",
    "dist.respawns": "count",
    "dist.restores": "count",
    "dist.reconstructions": "count",
    "dist.escalations": "count",
    "ckpt.commits": "count",
    "ckpt.commit_mb": "MB",
    "ckpt.write_ms": "ms",
    "ckpt.restore_ms": "ms",
    "common.crc32_gbps": "GB/s",
    "common.exec_chunks": "count",
    "common.exec_steals": "count",
    "common.exec_parks": "count",
    "abft.update_gflops": "GFLOP/s",
    "abft.panel_ms": "ms",
    "abft.verify_ms": "ms",
    "abft.locate_ms": "ms",
    "abft.phi": "ratio",
    "abft.flops": "count",
    "core.cells_per_s": "1/s",
    "core.sim_cell_ms": "ms",
    "core.model_cell_us": "us",
    "core.pred_ratio_p50": "ratio",
    "svc.queue_wait_ms_p50": "ms",
    "svc.server_ms_p50": "ms",
    "svc.transport_ms_p50": "ms",
    "svc.batch_tenants_mean": "count",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}

# Store bytes a workload may hold at once: lu_steady keeps one solve's 12
# snapshots of 44 MB, plus log framing, plus the replay probe's five.
STORE_NEED_BYTES = {"lu_steady": 1 << 30, "lu_faults": 64 << 20,
                    "sweep_mix": 1 << 20}
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A set-up failure: reported on stderr, no result line."""


# --- statistics ---------------------------------------------------------------

def tail_percentile(samples, q=0.9, min_beyond=10):
    """The q-quantile of `samples`, or None when fewer than `min_beyond`
    samples lie beyond it (too few to say anything about that tail)."""
    if len(samples) < 2:
        return None
    cut = statistics.quantiles(samples, n=100)[round(q * 100) - 1]
    beyond = sum(1 for x in samples if x > cut)
    return cut if beyond >= min_beyond else None


def fail_frac(attempted, failed):
    """Failed ops over attempted ops; a run that attempted nothing failed."""
    return failed / attempted if attempted > 0 else 1.0


def end_to_end(raw):
    """The end-to-end metric values of one run's raw results."""
    ops = raw["op_s"]
    completed = raw["attempted"] - raw["failed"]
    return {
        "op_s_p50": statistics.median(ops) if ops else 0.0,
        "ops_per_s": completed / raw["run_s"] if raw["run_s"] > 0 else 0.0,
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def result_line(raw, trace):
    """The last stdout line: correctness, counts and the metrics by unit."""
    if trace:
        missing = set(PER_LAYER) - set(raw["layers"])
        if missing:
            raise BenchError("per-layer metrics missing: " + ", ".join(sorted(missing)))
        values, units = raw["layers"], PER_LAYER
    else:
        values, units = end_to_end(raw), END_TO_END
    attempted, failed = raw["attempted"], raw["failed"]
    return json.dumps({
        "correct": failed == 0 and attempted > 0 and not raw["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    })


# --- build and store hygiene --------------------------------------------------

def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build(out):
    """Configure (until it has succeeded once) and build the benchmark
    binary; returns its path."""
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as sink:
        for cmd in steps:
            if subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return out / "perfbench"


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def scan_leftovers(store, own_prefix=None):
    """Remove store entries left by dead runs (and, at exit, our own).
    Entries are named pb<pid>-..., so a live run's files are never touched."""
    removed = 0
    if not store.is_dir():
        return removed
    for entry in store.iterdir():
        head = entry.name.split("-", 1)[0]
        if not head.startswith("pb") or not head[2:].isdigit():
            continue
        if head == own_prefix or not pid_alive(int(head[2:])):
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            else:
                entry.unlink(missing_ok=True)
            removed += 1
    return removed


def preflight(store, workload):
    free = shutil.disk_usage(store).free
    if free < STORE_NEED_BYTES[workload]:
        raise BenchError(f"{store} has {free >> 20} MiB free; {workload} needs "
                         f"{STORE_NEED_BYTES[workload] >> 20} MiB")


# --- machine descriptor -------------------------------------------------------

def read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def fs_type(path):
    """Filesystem type of the mount holding `path` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    for line in read("/proc/mounts").splitlines():
        parts = line.split()
        if len(parts) >= 3 and (path == parts[1] or path.startswith(parts[1].rstrip("/") + "/")):
            if len(parts[1]) > len(best):
                best, kind = parts[1], parts[2]
    return kind


def cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level = read(index / "level").strip()
        kind = read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes["L" + level] = read(index / "size").strip()
    return sizes


def cmake_cache_value(cache, key):
    for line in cache.splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def machine(out, store, raw):
    cpu = next((line.split(":", 1)[1].strip()
                for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    cache = read(out / "CMakeCache.txt")
    native = (cmake_cache_value(cache, "ABFTC_HAS_MARCH_NATIVE") == "1"
              and cmake_cache_value(cache, "ABFTC_NATIVE") != "OFF")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **cache_sizes(),
        "dev_shm_fs": fs_type("/dev/shm"),
        "store_fs": fs_type(store),
        "compiler": f"{cmake_cache_value(cache, 'CMAKE_CXX_COMPILER')} "
                    f"{raw.get('compiler', '?')}",
        "march": "-march=native" if native else "none",
        "kernel_isa": raw.get("isa", "?"),
        "git_commit": git_commit(),
    }


# --- running ------------------------------------------------------------------

def run_binary(binary, workload, seed, seconds, trace, store, prefix,
               trace_out=None, smoke=False):
    """Run one workload; returns (raw results, exit code). Raises BenchError
    when no results were written."""
    result = store / f"{prefix}-result.json"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--store={os.path.relpath(store, ROOT)}", f"--prefix={prefix}",
           f"--out={result}", f"--smoke={int(smoke)}"]
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    # Own session, so a timeout can stop the binary and its forked ranks.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    try:
        raw = json.loads(result.read_text())
    except (OSError, ValueError):
        raise BenchError(f"{workload} wrote no results (exit {code})")
    finally:
        result.unlink(missing_ok=True)
    return raw, code


def summary(workload, raw, trace, trace_out):
    e2e = end_to_end(raw)
    ops = raw["op_s"]
    p90 = tail_percentile(ops)
    lines = [
        f"{workload} seed={raw['seed']} trace={int(trace)}: "
        f"op_s_p50={e2e['op_s_p50']:.6g} s (n={len(ops)}) "
        + (f"op_s_p90={p90:.6g} s " if p90 is not None
           else "op_s_p90=omitted (fewer than 10 samples beyond it) ")
        + f"ops_per_s={e2e['ops_per_s']:.6g} 1/s "
        f"fail_frac={fail_frac(raw['attempted'], raw['failed']):.6g} "
        f"({raw['failed']}/{raw['attempted']}) "
        f"setup_s={e2e['setup_s']:.6g} s peak_rss_mb={e2e['peak_rss_mb']:.6g} MB",
    ]
    for error in raw["errors"]:
        lines.append(f"  FAILED: {error}")
    if "calibration_check_s_unreliable" in raw["notes"]:
        lines.append(
            "  note: Calibration.check_s = "
            f"{raw['notes']['calibration_check_s_unreliable']:.3g} s is unreliable: "
            "calibrate() times a final_residual() call whose result it discards, "
            "so the optimizer may delete the timed sweep")
    if raw["notes"].get("flip2_cells_sharing_a_residual_slot", 0) > 0:
        lines.append(
            "  note: "
            f"{raw['notes']['flip2_cells_sharing_a_residual_slot']:.0f} flip2 cells "
            "put both flips in one checksum residual slot, where no localization "
            "can name both sites; they are gated on recovery alone")
    if trace:
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name} = {raw['layers'].get(name, float('nan')):.6g} {unit}")
        lines.append(f"  trace: {raw['trace_events']} spans -> {trace_out}")
    return "\n".join(lines)


def run_one(binary, out, store, workload, seed, seconds, trace):
    prefix = f"pb{os.getpid()}"
    preflight(store, workload)
    trace_out = out / f"trace-{workload}-seed{seed}.json" if trace else None
    try:
        raw, code = run_binary(binary, workload, seed, seconds, trace, store,
                               prefix, trace_out)
    finally:
        scan_leftovers(store, own_prefix=prefix)
    print(summary(workload, raw, trace, trace_out))
    print("machine: " + json.dumps(machine(out, store, raw)))
    line = result_line(raw, trace)
    print(line, flush=True)
    return 0 if code == 0 and json.loads(line)["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = build_dir()
        binary = build(out)
        store = out / "store"
        store.mkdir(parents=True, exist_ok=True)
        stale = scan_leftovers(store)
        if stale:
            print(f"perfbench: removed {stale} store entries left by dead runs",
                  file=sys.stderr)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        return max(run_one(binary, out, store, name, args.seed, args.seconds,
                           bool(args.trace)) for name in names)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
