#!/usr/bin/env python3
"""Closed-loop benchmark of one Basil shard (f=1, 6 basil_node replica processes)
driven over localhost TCP by one gateway load process (perfbench/load.cc).

    python3 perfbench/run.py --workload ycsb_uniform --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run builds basil_node and the load
process from source into $CARGO_TARGET_DIR (default .bench_build). The last
line of stdout is one JSON object: correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
See perfbench/README.md.
"""
import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("ycsb_uniform", "ycsb_zipf", "read_only", "durable_uniform")
# Each run sets up a fresh cluster this many times and measures an equal share
# of --seconds on each; every metric is the median over the set-ups, so one
# unlucky deployment (process placement on the cores, a burst of host load)
# does not decide the run.
SETUPS = 3
REPLICAS = 6
PORT_ATTEMPTS = 5
DEADLINE_S = 170  # Whole-run budget once the build is done.

STARTED = []  # Every process this run started; main() reaps any left over.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


class BenchError(Exception):
    pass


class PortCollision(Exception):
    pass


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build():
    """Configures (once) and builds the replica binary and the load process."""
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isfile(
            os.path.join(ROOT, "tools", "basil_node.cc")):
        raise BenchError("no program sources next to perfbench/ (run from the repo root)")
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target", "basil_node",
                      "perfbench_load"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "basil_node"), os.path.join(out, "perfbench_load")


def local_port_floor():
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range") as f:
            return int(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 32768


def pick_ports(rng, count):
    """Free ports below the kernel's ephemeral range, so no outgoing connection
    of this deployment can take one between the probe and the replica's bind."""
    hi = min(local_port_floor(), 65536) - 1
    ports = []
    while len(ports) < count:
        p = rng.randrange(10000, hi)
        if p in ports:
            continue
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind(("0.0.0.0", p))
            ports.append(p)
        except OSError:
            pass
        finally:
            s.close()
    return ports


class Cluster:
    """Six replica processes plus the load process of one set-up."""

    def __init__(self, node_bin, load_bin, workdir, workload, ports):
        self.node_bin, self.load_bin = node_bin, load_bin
        self.workdir, self.workload, self.ports = workdir, workload, ports
        self.replicas = []
        self.load = None
        self.logs = []

    def config(self):
        path = os.path.join(self.workdir, "cluster.cfg")
        lines = ["f 1", "shards 1", "seed 4242"]
        if self.workload == "durable_uniform":
            lines.append("wal_fsync 8")  # The cluster script's group-commit cadence.
        for i in range(REPLICAS):
            lines.append("node %d replica 127.0.0.1 %d" % (i, self.ports[i]))
        lines.append("node %d client 127.0.0.1 %d" % (REPLICAS, self.ports[REPLICAS]))
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        return path

    def start_replicas(self, cfg):
        for i in range(REPLICAS):
            cmd = [self.node_bin, "--config", cfg, "--id", str(i), "--metrics-out",
                   os.path.join(self.workdir, "replica%d.json" % i)]
            if self.workload == "durable_uniform":
                cmd += ["--data-dir", os.path.join(self.workdir, "data")]
            log = open(os.path.join(self.workdir, "replica%d.log" % i), "w")
            self.logs.append(log)
            self.replicas.append(subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT))
            STARTED.append(self.replicas[-1])
        deadline = time.monotonic() + 20
        for i in range(REPLICAS):
            path = os.path.join(self.workdir, "replica%d.log" % i)
            while True:
                with open(path) as f:
                    text = f.read()
                if "READY" in text:
                    break
                if self.replicas[i].poll() is not None:
                    if "cannot listen" in text:
                        raise PortCollision(text.strip())
                    raise BenchError("replica %d exited during start-up: %s" % (i, text[-500:]))
                if time.monotonic() > deadline:
                    raise BenchError("replica %d never became ready" % i)
                time.sleep(0.005)

    def start_load(self, cfg, args):
        cmd = [self.load_bin, "--config", cfg, "--workload", self.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds / SETUPS), "--trace",
               str(args.trace), "--replica-pids", ",".join(str(p.pid) for p in self.replicas),
               "--snap-dir", self.workdir]
        if args.plant:
            cmd += ["--plant", args.plant]
        err = open(os.path.join(self.workdir, "load.err"), "w")
        self.logs.append(err)
        self.load = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
        STARTED.append(self.load)

    def read_load_line(self, prefix):
        for line in self.load.stdout:
            if line.startswith("BIND_FAILED"):
                raise PortCollision("load process could not bind its port")
            if line.startswith(prefix):
                return line
            sys.stdout.write(line)
        self.load.wait()
        raise BenchError("load process ended without %s (exit %s): %s" %
                         (prefix.strip(), self.load.returncode, self.load_stderr()))

    def load_stderr(self):
        try:
            with open(os.path.join(self.workdir, "load.err")) as f:
                return f.read()[-2000:]
        except OSError:
            return ""

    def dead_replicas(self):
        return [i for i, p in enumerate(self.replicas) if p.poll() is not None]

    def stop(self):
        procs = ([self.load] if self.load else []) + self.replicas
        for p in procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if self.load and self.load.stdout:
            self.load.stdout.close()
        for log in self.logs:
            log.close()


def setup(node_bin, load_bin, root_dir, args, rng, index):
    """Starts a cluster and loads the keyspace; returns (cluster, seconds).
    A listen-port collision is retried on fresh ports."""
    for attempt in range(PORT_ATTEMPTS):
        workdir = os.path.join(root_dir, "setup%d-%d" % (index, attempt))
        os.makedirs(workdir)
        cluster = Cluster(node_bin, load_bin, workdir, args.workload,
                          pick_ports(rng, REPLICAS + 1))
        t0 = time.monotonic()
        try:
            cfg = cluster.config()
            cluster.start_replicas(cfg)
            cluster.start_load(cfg, args)
            cluster.read_load_line("LOADED")
            return cluster, time.monotonic() - t0
        except PortCollision as e:
            sys.stderr.write("port collision, retrying on fresh ports: %s\n" % e)
            cluster.stop()
        except BaseException:
            cluster.stop()
            raise
    raise BenchError("no free ports after %d attempts" % PORT_ATTEMPTS)


def final_snapshot_drops(cluster):
    """Outbox frames the replicas shed, from their shutdown snapshots."""
    dropped = 0
    for i in range(REPLICAS):
        with open(os.path.join(cluster.workdir, "replica%d.json" % i)) as f:
            snap = json.load(f)
        dropped += snap.get("counters", {}).get("rt.writer.dropped_frames", 0)
    return dropped


def measure(cluster):
    """Waits for the load process's result; returns it with this set-up's own
    checks folded into "correct"."""
    line = cluster.read_load_line("RESULT")
    cluster.load.wait()
    sys.stdout.write(cluster.load_stderr())
    problems = []
    dead = cluster.dead_replicas()
    if dead:
        problems.append("replica(s) %s died during the run" % dead)
    if cluster.load.returncode != 0:
        problems.append("load process exited with %s" % cluster.load.returncode)
    cluster.stop()
    drops = final_snapshot_drops(cluster)
    if drops:
        problems.append("replicas shed %d outbox frame(s)" % drops)
    for p in problems:
        sys.stderr.write("CHECK FAILED: %s\n" % p)
    result = json.loads(line[len("RESULT "):])
    result["correct"] = bool(result["correct"]) and not problems
    return result


def on_deadline(signum, frame):
    raise BenchError("run exceeded %d s" % DEADLINE_S)


def run(args):
    node_bin, load_bin = build()
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)  # Bounds every blocking wait below; the build is exempt.
    calib = subprocess.run([load_bin, "--calibrate"], capture_output=True, text=True)
    if calib.returncode != 0:
        raise BenchError("calibration failed: " + calib.stderr)
    sys.stdout.write(calib.stdout)
    rng = random.Random()  # Ports only; the workload's inputs come from --seed.
    root_dir = os.path.join(build_dir(), "runs", "%d-%d" % (os.getpid(), int(time.time())))
    os.makedirs(root_dir)
    try:
        setup_times, parts = [], []
        for i in range(SETUPS):
            cluster, secs = setup(node_bin, load_bin, root_dir, args, rng, i)
            try:
                setup_times.append(secs)
                parts.append(measure(cluster))
            finally:
                cluster.stop()
        metrics = {}
        for name, m in parts[0]["metrics"].items():
            metrics[name] = {"value": statistics.median(p["metrics"][name]["value"] for p in parts),
                             "unit": m["unit"]}
        if not args.trace:
            metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        result = {"correct": all(p["correct"] for p in parts),
                  "attempted": sum(p["attempted"] for p in parts),
                  "failed": sum(p["failed"] for p in parts),
                  "metrics": metrics}
        print("SETUP s=%s" % ",".join("%.3f" % s for s in setup_times))
        for name in ("tput_tps", "p50_ms"):
            if name in parts[0]["metrics"]:
                print("SEGMENTS %s=%s" % (name, ",".join(
                    "%.4g" % p["metrics"][name]["value"] for p in parts)))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(root_dir, ignore_errors=True)


def selftest():
    """The output checks must fail on planted faults: first as unit checks, then
    end to end on a short real run of each kind of check."""
    _, load_bin = build()
    if subprocess.call([load_bin, "--selftest"]) != 0:
        return 1
    failures = 0
    for workload, plant in (("ycsb_uniform", None), ("ycsb_uniform", "lost_update"),
                            ("read_only", "wrong_read")):
        child = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
                 "1", "--seconds", "2", "--trace", "0"] + (["--plant", plant] if plant else [])
        out = subprocess.run(child, capture_output=True, text=True, timeout=180)
        lines = out.stdout.strip().splitlines()
        correct = json.loads(lines[-1])["correct"] if out.returncode == 0 and lines else None
        want = plant is None
        ok = correct is want
        print("%s: %s with %s planted -> correct=%s" %
              ("ok  " if ok else "FAIL", workload, plant or "nothing", correct))
        failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", choices=("lost_update", "wrong_read"),
                    help="corrupt the benchmark's own bookkeeping to prove the checks fire")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        return run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    finally:
        signal.alarm(0)
        for p in STARTED:
            if p.poll() is None:
                p.kill()
            p.wait()


if __name__ == "__main__":
    sys.exit(main())
