#!/usr/bin/env python3
"""Golden outputs: every modeled result the repo publishes, in one directory.

    tools/golden.py run DIR [-j N] [--build BUILD]
    tools/golden.py diff A B

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
- the digest line each `CcNicConservation` property test prints, after
  its test name, in `ccnic_conservation.digests`.

Up to N jobs (default 1) run at once; each writes only its own files,
so the result does not depend on N. Wall time and stderr are not kept.
`run` exits 1 if any job fails.

`diff` names every file that differs between two such directories or
is in only one of them, and exits 1 if there is any. A simulator
change that claims identical modeled output must give an empty diff
against a golden set made from its parent commit.
"""

import argparse
import concurrent.futures
import filecmp
import os
import subprocess
import sys
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

DIGESTS = "ccnic_conservation.digests"


def jobs(build: Path, out: Path):
    """(name, argv, JSON dir or None, save(stdout)) per golden run."""
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
    yield ("ccnic_conservation",
           [build / "tests/property_test",
            "--gtest_filter=*CcNicConservation*"], None,
           lambda data: write_digests(data.decode(), out / DIGESTS))
    for ccn in sorted((ROOT / "examples" / "scenarios").glob("*.ccn")):
        name = f"scenario_{ccn.stem}"
        yield (name, [build / "src/scenario/ccn_run", ccn.relative_to(ROOT)],
               out, keep(f"{name}.stdout"))
    for e in EXAMPLES:
        yield e, [build / "examples" / e], out, keep(f"{e}.stdout")


def run_job(name, argv, json_dir, save):
    """Run one job from the repo root; returns (name, seconds, error)."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, CCN_JSON_DIR=str(json_dir or tmp))
        proc = subprocess.run([str(a) for a in argv], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
    seconds = time.monotonic() - start
    if proc.returncode != 0:
        return name, seconds, f"exit status {proc.returncode}"
    save(proc.stdout)
    return name, seconds, None


def write_digests(text, path):
    """Keep each `digest ...` line, prefixed by its test's name."""
    lines, test = [], "?"
    for line in text.splitlines():
        if line.startswith("[ RUN      ] "):
            test = line[len("[ RUN      ] "):]
        elif line.startswith("digest "):
            lines.append(f"{test} {line}\n")
    path.write_text("".join(lines))


def cmd_run(args) -> int:
    out = Path(args.dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    build = ROOT / args.build
    failed = []
    start = time.monotonic()
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(run_job, *j) for j in jobs(build, out)]
        for f in concurrent.futures.as_completed(futures):
            name, seconds, error = f.result()
            print(f"{name}: {error or 'ok'} ({seconds:.1f} s)", flush=True)
            if error:
                failed.append(name)
    print(f"golden: {len(futures)} jobs in "
          f"{time.monotonic() - start:.1f} s, written to {out}")
    if failed:
        print("golden: FAILED: " + " ".join(sorted(failed)),
              file=sys.stderr)
        return 1
    return 0


def cmd_diff(args) -> int:
    a, b = Path(args.a), Path(args.b)
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
    return 1 if differ else 0


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
    diff = sub.add_parser("diff", help="name the files that differ")
    diff.add_argument("a")
    diff.add_argument("b")
    args = ap.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
