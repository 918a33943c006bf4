#!/usr/bin/env python3
"""Exit-status tests for the abenc_soak CLI.

Run through ctest (registered as `soak_cli_test`, which passes the
built binary's path as argv[1]). CI legs gate on the soak's exit
status, so the contract is part of the tool: 0 when every session
verified, 1 on verification failures or a run that threw, 2 on a blown
time budget or bad usage — never an abort, and never an endless retry
loop on a configuration no queue can admit.
"""

import subprocess
import sys
import unittest
from pathlib import Path

# Small runs, so every case finishes in well under a second; the
# subprocess timeout turns a hang into a failure instead of a stuck
# ctest.
SMALL = ["--sessions", "4", "--length", "32", "--clients", "2"]


def run(tool, *argv):
    return subprocess.run(
        [str(tool), *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=60,
    )


class SoakCliTest(unittest.TestCase):
    tool = None  # set in main() from argv[1]

    def assert_usage_error(self, *argv):
        result = run(self.tool, *argv)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("usage:", result.stderr)
        return result

    def test_small_inproc_run_passes(self):
        result = run(self.tool, *SMALL)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("bit-identity vs serial EvaluateWithSchedule: OK",
                      result.stdout)

    def test_small_wire_run_passes(self):
        result = run(self.tool, *SMALL, "--endpoint", "tcp:127.0.0.1:0",
                     "--disconnect-fraction", "0.5", "--fuzz", "1")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("ATTACH resumes", result.stdout)

    def test_unknown_codec_fails_instead_of_aborting(self):
        result = run(self.tool, *SMALL, "--codec", "no-such-codec")
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("no-such-codec", result.stderr)

    def test_zero_queue_capacity_is_a_usage_error(self):
        self.assert_usage_error(*SMALL, "--queue-cap", "0")

    def test_chunk_larger_than_the_queue_is_a_usage_error(self):
        self.assert_usage_error(*SMALL, "--queue-cap", "16", "--chunk", "32")

    def test_wire_only_options_are_usage_errors_inproc(self):
        self.assert_usage_error(*SMALL, "--fuzz", "2")
        self.assert_usage_error(*SMALL, "--disconnect-fraction", "0.5")

    def test_bad_endpoint_and_flags_are_usage_errors(self):
        self.assert_usage_error(*SMALL, "--endpoint", "carrier-pigeon")
        self.assert_usage_error(*SMALL, "--no-such-flag", "1")
        self.assert_usage_error(*SMALL, "--sessions", "lots")
        self.assert_usage_error("--sessions")


def main():
    if len(sys.argv) < 2:
        print("usage: test_soak_cli.py <path-to-abenc_soak>", file=sys.stderr)
        return 2
    SoakCliTest.tool = Path(sys.argv[1]).resolve()
    if not SoakCliTest.tool.exists():
        print(f"abenc_soak binary not found: {SoakCliTest.tool}",
              file=sys.stderr)
        return 2
    unittest.main(argv=[sys.argv[0]], verbosity=2)


if __name__ == "__main__":
    sys.exit(main())
