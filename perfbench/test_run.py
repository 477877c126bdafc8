#!/usr/bin/env python3
"""Tests of the benchmark's own correctness checks.

Run from the repository root (builds the benchmark on first use, then
takes about two minutes):

    python3 perfbench/test_run.py

They check that the checks can fail: a corrupted golden digest and a
forced apexd reject must each show up as failed units (a rise in
failed_frac), and the benchmark must refuse to run without the APEX
sources next to it.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*args):
    """Run the benchmark; return (exit code, last-line JSON or None)."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                       [str(a) for a in args], cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return p.returncode, None


class Scratch:
    """A throwaway directory inside the checkout's .bench_state."""

    def __enter__(self):
        self.path = os.path.join(ROOT, run.STATE, "test-%d" % os.getpid())
        os.makedirs(self.path, exist_ok=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, run.STATE))
        except OSError:
            pass


class HelperTest(unittest.TestCase):
    GOLDEN = {"apps": {"all9": ["a", "b"], "six": ["a"]},
              "cells": {"pnr": {"a/pe_base": "1", "b/pe_base": "2"}}}

    def test_cell_mismatches_restricts_to_the_app_set(self):
        n, bad = run.cell_mismatches(self.GOLDEN, "pnr", "six",
                                     {"a/pe_base": "1"})
        self.assertEqual((n, bad), (1, []))

    def test_cell_mismatches_counts_wrong_missing_and_unknown(self):
        n, bad = run.cell_mismatches(self.GOLDEN, "pnr", "all9",
                                     {"a/pe_base": "9", "c/pe_base": "3"})
        self.assertEqual(n, 2)
        self.assertEqual(bad, ["a/pe_base", "b/pe_base", "c/pe_base"])

    def test_quantile(self):
        self.assertEqual(run.quantile([5.0], 0.99), 5.0)
        values = list(range(1, 102))
        self.assertAlmostEqual(run.quantile(values, 0.5), 51.0)
        self.assertAlmostEqual(run.quantile(values, 0.99), 100.0)

    def test_layer_units(self):
        self.assertEqual(run.layer_unit("mining.mis_ms.fast"), "ms")
        self.assertEqual(run.layer_unit("merging.ms"), "ms")
        self.assertEqual(run.layer_unit("service.server_ms_p50"), "ms")
        self.assertEqual(run.layer_unit("cgra.place_success_ratio"),
                         "ratio")
        self.assertEqual(run.layer_unit("mining.embeddings"), "count")
        self.assertEqual(
            run.layer_unit("service.rss_growth_mb_per_request"), "MB")


class FailureAccountingTest(unittest.TestCase):
    def test_clean_forked_run_has_no_failures(self):
        code, result = bench("--workload", "dse-six-pnr-forked",
                             "--seconds", 1)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_corrupted_golden_digest_counts_as_failed(self):
        golden = run.load_golden(run.GOLDEN)
        cell = "camera/pe_base"
        golden["cells"]["pnr"][cell] = "0" * 16
        with Scratch() as tmp:
            path = os.path.join(tmp, "golden.json")
            with open(path, "w") as f:
                json.dump(golden, f)
            code, result = bench("--workload", "dse-six-pnr-forked",
                                 "--seconds", 1, "--golden", path)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        # One cell per sweep (the in-process reference included) misses.
        self.assertGreaterEqual(result["failed"], 2)
        self.assertLess(result["failed"], result["attempted"])

    def test_forced_daemon_reject_counts_as_failed(self):
        code, result = bench("--workload", "daemon-warm-3clients",
                             "--seconds", 1, "--reject-every", 4)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])


class StandaloneTest(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        with Scratch() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "dse-all9-pipe", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
