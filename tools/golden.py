#!/usr/bin/env python3
"""Golden outputs: every modeled result the repo publishes, in one directory.

    tools/golden.py run DIR [-j N] [--build BUILD]
    tools/golden.py diff A B
    tools/golden.py compare BASE [HEAD] [-j N] [--work DIR]

`run` executes, from the repository root and with the binaries of the
build tree BUILD (default `build`), everything whose output the
baselines and EXPERIMENTS.md rows come from, and writes it into DIR:

- each of the 20 `bench_*` binaries: its `BENCH_<name>.json` and its
  stdout as `<bench>.stdout`;
- each checked-in scenario, run as `ccn_run examples/scenarios/<x>.ccn`
  (a repo-relative path, because the report embeds it): its
  `BENCH_scenario_<x>.json` and `scenario_<x>.stdout`;
- the stdout of each of the 6 examples, as `<example>.stdout`;
- `bench_fig14_signaling_layout --trace`'s trace as `fig14.trace`;
- the digest line each `CcNicConservation` and `PioConservation`
  property test prints, after its test name, in
  `ccnic_conservation.digests` and `pio_conservation.digests`.

Up to N jobs (default 1) run at once; each writes only its own files,
so the result does not depend on N. Each job's progress line gives its
wall time and peak resident memory (`ru_maxrss`, in MB of 2^20
bytes); neither is written to DIR, nor is stderr. `run` exits 1 if any
job fails.

`diff` names every file that differs between two such directories or
is in only one of them, and exits 1 if there is any. A simulator
change that claims identical modeled output must give an empty diff
against a golden set made from its parent commit.

`compare` does that check in one command: it exports the commits BASE
and HEAD (default HEAD) of this repository with `git archive` into
DIR/base and DIR/head (default: a new temporary directory), builds
each in Release, runs this file's golden set in each tree into
DIR/golden-base and DIR/golden-head, and diffs them. A base that fails
to build or run counts as a difference; a head that fails is an error.
It exits 1 on any difference unless a commit in BASE..HEAD carries an
`Output-Change:` trailer, which declares that the change means to move
modeled output: then it prints the differing files and exits 0. CI
runs it on every pull request against the base side of the test merge
(`compare HEAD^1 HEAD`).
"""

import argparse
import concurrent.futures
import filecmp
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Slowest first (about 25 s down to 0.1 s each, Release on 4 vCPUs), so
# that -j N finishes soon after the longest one.
BENCHES = (
    "bench_fig16_batching", "bench_fig13_loopback_spr",
    "bench_fig19_kvstore", "bench_fig14_signaling_layout",
    "bench_fig15_buffer_mgmt", "bench_fig11_overview",
    "bench_table2_applications", "bench_fig20_prefetch",
    "bench_fig12_loopback_icx", "bench_fig21_sensitivity",
    "bench_fig09_stream_throughput", "bench_fabric_kvstore",
    "bench_pio_smallmsg", "bench_fig08_pingpong",
    "bench_fig18_same_socket", "bench_fig02_wc_throughput",
    "bench_fig03_wc_store_latency", "bench_fig17_coherence_counters",
    "bench_fig07_access_latency", "bench_table1_interconnects",
)

EXAMPLES = ("quickstart", "interface_compare", "kv_server",
            "kv_over_fabric", "latency_probe", "middlebox")

# Property tests whose digest lines are kept: (job name, test suite).
CONSERVATION = (("ccnic_conservation", "CcNicConservation"),
                ("pio_conservation", "PioConservation"))


def jobs(root: Path, build: Path, out: Path):
    """(name, argv, JSON dir or None, save(stdout)) per golden run of
    the source tree @root with the binaries of @build."""
    def keep(name):
        # ccn_run names the report it wrote; keep DIR out of the text.
        return lambda data: (out / name).write_bytes(
            data.replace(bytes(out), b"DIR"))

    # The traced run's report would overwrite the plain fig14 run's, so
    # its JSON goes to a temporary directory; only the trace is kept.
    yield ("fig14_trace",
           [build / "bench/bench_fig14_signaling_layout", "--trace",
            out / "fig14.trace"], None, lambda data: None)
    for b in BENCHES:
        yield b, [build / "bench" / b], out, keep(f"{b}.stdout")
    for name, test in CONSERVATION:
        yield (name,
               [build / "tests/property_test", f"--gtest_filter=*{test}*"],
               None, lambda data, name=name: write_digests(
                   data.decode(), out / f"{name}.digests"))
    for ccn in sorted((root / "examples" / "scenarios").glob("*.ccn")):
        name = f"scenario_{ccn.stem}"
        yield (name, [build / "src/scenario/ccn_run", ccn.relative_to(root)],
               out, keep(f"{name}.stdout"))
    for e in EXAMPLES:
        yield e, [build / "examples" / e], out, keep(f"{e}.stdout")


def run_job(root, name, argv, json_dir, save):
    """Run one job from @root; returns (name, seconds, peak RSS in MB,
    error). The child is reaped with wait4, whose rusage is its own."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, CCN_JSON_DIR=str(json_dir or tmp))
        proc = subprocess.Popen([str(a) for a in argv], cwd=root, env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.monotonic() - start
    rss_mb = usage.ru_maxrss / 1024  # Linux reports kilobytes.
    if proc.returncode != 0:
        return name, seconds, rss_mb, f"exit status {proc.returncode}"
    save(stdout)
    return name, seconds, rss_mb, None


def write_digests(text, path):
    """Keep each `digest ...` line, prefixed by its test's name."""
    lines, test = [], "?"
    for line in text.splitlines():
        if line.startswith("[ RUN      ] "):
            test = line[len("[ RUN      ] "):]
        elif line.startswith("digest "):
            lines.append(f"{test} {line}\n")
    path.write_text("".join(lines))


def golden(root: Path, build: Path, out: Path, n_jobs: int) -> bool:
    """Write the golden set of @root into @out; True if every job ran."""
    out.mkdir(parents=True, exist_ok=True)
    failed = []
    start = time.monotonic()
    with concurrent.futures.ThreadPoolExecutor(n_jobs) as pool:
        futures = [pool.submit(run_job, root, *j)
                   for j in jobs(root, build, out)]
        for f in concurrent.futures.as_completed(futures):
            name, seconds, rss_mb, error = f.result()
            print(f"{name}: {error or 'ok'} ({seconds:.1f} s, "
                  f"{rss_mb:.0f} MB)", flush=True)
            if error:
                failed.append(name)
    print(f"golden: {len(futures)} jobs in "
          f"{time.monotonic() - start:.1f} s, written to {out}")
    if failed:
        print("golden: FAILED: " + " ".join(sorted(failed)),
              file=sys.stderr)
    return not failed


def cmd_run(args) -> int:
    return 0 if golden(ROOT, ROOT / args.build, Path(args.dir).resolve(),
                       args.jobs) else 1


def diff(a: Path, b: Path) -> int:
    """Print each file that differs; returns how many do."""
    names_a = {p.name for p in a.iterdir() if p.is_file()}
    names_b = {p.name for p in b.iterdir() if p.is_file()}
    differ = 0
    for name in sorted(names_a | names_b):
        if name not in names_b:
            print(f"only in {a}: {name}")
        elif name not in names_a:
            print(f"only in {b}: {name}")
        elif not filecmp.cmp(a / name, b / name, shallow=False):
            print(f"differs: {name}")
        else:
            continue
        differ += 1
    print(f"golden diff: {differ} of {len(names_a | names_b)} files "
          "differ", file=sys.stderr)
    return differ


def cmd_diff(args) -> int:
    return 1 if diff(Path(args.a), Path(args.b)) else 0


def git(*argv) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def export_and_build(rev: str, tree: Path, n_jobs: int) -> bool:
    """Export commit @rev into @tree and build it in Release."""
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(tree, filter="data")
    build = tree / "build"
    for argv in (["cmake", "-S", tree, "-B", build,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build, "-j", str(n_jobs)]):
        proc = subprocess.run([str(a) for a in argv], text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            print(proc.stdout[-8000:], file=sys.stderr)
            print(f"compare: {rev}: {' '.join(argv[:2])} failed",
                  file=sys.stderr)
            return False
    return True


def cmd_compare(args) -> int:
    work = Path(args.work or tempfile.mkdtemp(prefix="golden-compare-"))
    work = work.resolve()
    revs = {}
    for side, rev in (("base", args.base), ("head", args.head)):
        revs[side] = git("rev-parse", "--verify",
                         f"{rev}^{{commit}}").decode().strip()
    ok = {}
    for side, rev in revs.items():
        print(f"compare: {side} {rev} in {work / side}", flush=True)
        tree = work / side
        out = work / f"golden-{side}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        ok[side] = (export_and_build(rev, tree, args.jobs) and
                    golden(tree, tree / "build", out, args.jobs))
    if not ok["head"]:
        print("compare: the head failed to build or run", file=sys.stderr)
        return 1
    differ = diff(work / "golden-base", work / "golden-head")
    if not ok["base"]:
        print("compare: the base failed to build or run, which counts "
              "as a difference", file=sys.stderr)
        differ = differ or 1
    if not differ:
        return 0
    declared = [line for line in git(
        "log", "--format=%(trailers:key=Output-Change)",
        f"{revs['base']}..{revs['head']}").decode().splitlines() if line]
    if declared:
        print("compare: modeled output changed, as declared:")
        for line in declared:
            print(f"  {line}")
        return 0
    print("compare: modeled output changed, and no commit in "
          f"{args.base}..{args.head} carries an Output-Change: trailer",
          file=sys.stderr)
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="write every golden output to DIR")
    run.add_argument("dir")
    run.add_argument("-j", "--jobs", type=int, default=1)
    run.add_argument("--build", default="build",
                     help="build tree holding the binaries, absolute or "
                          "relative to the repository root (default: "
                          "build)")
    dif = sub.add_parser("diff", help="name the files that differ")
    dif.add_argument("a")
    dif.add_argument("b")
    cmp = sub.add_parser("compare", help="build two commits, run the "
                         "golden set in each and diff them")
    cmp.add_argument("base")
    cmp.add_argument("head", nargs="?", default="HEAD")
    cmp.add_argument("-j", "--jobs", type=int, default=1)
    cmp.add_argument("--work", help="directory for both trees and both "
                     "golden sets (default: a new temporary directory)")
    args = ap.parse_args(argv)
    return {"run": cmd_run, "diff": cmd_diff,
            "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
