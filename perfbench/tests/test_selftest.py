"""Self-tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Run from the root of a checkout. Each test drives `perfbench/run.py`
with scaled-down inputs (`--tiny`), so a full pass takes about a minute
after the first build. They check that:

* every workload prints every end-to-end metric of BENCHMARK.json, by
  name and unit, plus the text lines for the workload-specific names;
* a traced run prints every per-layer metric, by name and unit;
* a deliberately corrupted reply is counted as a failure and fails the
  run, so the oracle parity check cannot silently rot;
* outside a full checkout the benchmark fails without a result line.
"""

import json
import os
import shutil
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("bulk", "small_rpc", "resident_mutate")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    p = subprocess.run(
        ["python3", script, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return p.returncode, lines, result


class Contract(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_every_end_to_end_metric_on_every_workload(self):
        named_lines = {
            "bulk": ["latency (rank jobs)"],
            "small_rpc": ["interactive_p50_ms", "interactive_p99_ms"],
            "resident_mutate": ["latency_p99_ms", "write_p50_ms", "write_p99_ms"],
        }
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = run(w, 0)
                self.assertEqual(code, 0, "\n".join(lines))
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                text = "\n".join(lines[:-1])
                self.assertIn('"fingerprint"', lines[0])
                self.assertIn("error_rate: 0.000000 ratio", text)
                for name in named_lines[w]:
                    self.assertIn(name, text)
                for m in SPEC["end_to_end"]:
                    self.assertIn(f"{m['name']}: ", text)

    def test_every_per_layer_metric_in_a_traced_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = run(w, 1)
                self.assertEqual(code, 0, "\n".join(lines))
                self.check_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])

    def test_corrupted_replies_fail_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = run(w, 0, "--corrupt-every", "3")
                self.assertNotEqual(code, 0)
                self.assertIsNotNone(result, "\n".join(lines))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
            code, lines, result = run("bulk", 0, cwd=bare,
                                      script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
