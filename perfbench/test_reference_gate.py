#!/usr/bin/env python3
"""Self-test of the benchmark's scalar gate.

Runs sia_perfbench briefly on each gate kind with a reference scalar that is
off by a relative 1e-9: sparse_fock (relative 1e-10 gate) and io_storm
(exact gate). Each run must still exit 0 and print its record, with the
timed runs counted as failed and `correct` false: a wrong reference is
reported as a failure, not as a crash or a pass. A run with the true
reference must pass.

    python3 perfbench/test_reference_gate.py
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def drive(exe, workload, offset, work):
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, TMPDIR=work)
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", "0", "--work-dir", work, "--reference-offset", offset],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    shutil.rmtree(work, ignore_errors=True)
    assert proc.returncode == 0, (workload, offset, proc.returncode,
                                  proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main():
    bdir = run.build_dir()
    exe = run.build(bdir)
    assert exe is not None, "build failed"
    work = os.path.join(bdir, "work", "selftest")
    for workload in ("sparse_fock", "io_storm"):
        good, _ = drive(exe, workload, "0", work)
        assert good["correct"] and good["failed"] == 0, good["errors"]

        bad, stderr = drive(exe, workload, "1e-9", work)
        # Only the plain run that set the reference passes.
        assert not bad["correct"], workload
        assert bad["failed"] == bad["attempted"] - 1, (bad["attempted"],
                                                       bad["failed"])
        assert bad["metrics"]["pass_ratio"]["value"] < 1.0
        assert "differs from reference" in stderr
        print("%s: true reference passes %d/%d runs; wrong reference "
              "fails %d/%d" % (workload, good["attempted"], good["attempted"],
                               bad["failed"], bad["attempted"]))
    print("ok")


if __name__ == "__main__":
    main()
