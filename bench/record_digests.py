"""Record the sha256 of every output of the documented CLI invocations.

Usage: python3 bench/record_digests.py

Runs the nine README invocations once, in order, in a scratch directory
under bench/out and writes bench/digests.json. The ``cli`` and ``sessions``
workloads compare their outputs with this record, so rerun it only in a
change that means to alter a documented output.
"""

import json
import shutil
import sys

from workloads import DIGESTS, cli_command, collect_outputs, new_workdir, spawn

#: The command-line section of README.md, pinned seeds included.
DOCUMENTED_INVOCATIONS = (
    ["gen", "emg", "--intent-script", "open:2,relax:2,close:2", "--seed", "7",
     "--out", "emg.jsonl"],
    ["gen", "load", "--script", "rest:2,elevated:2,rest:2,depressed:2",
     "--noise-std", "0.4", "--dither-amp", "1.5", "--seed", "11", "--out", "load.jsonl"],
    ["gen", "cohort", "--out", "cohort.csv"],
    ["gen", "screening", "--subject", "separable", "--seed", "0", "--out", "screening"],
    ["screen", "screening", "--format", "json", "--out", "screening.json"],
    ["episode", "--intent-script", "open:3,relax:1,close:3",
     "--hand-size", "M", "--mas", "1", "--out", "episode.jsonl"],
    ["simulate", "--group", "SH", "--subject-id", "S01", "--sessions", "2",
     "--seed", "3", "--out", "sessions"],
    ["analyze", "cohort.csv", "--q", "0.05", "--format", "json", "--out", "report.json"],
    ["protocol", "list-tasks", "--out", "tasks.txt"],
)


def main() -> int:
    workdir = new_workdir("digests")
    logs = workdir / "logs"
    logs.mkdir()
    cwd = workdir / "run"
    cwd.mkdir()
    records = []
    try:
        for index, argv in enumerate(DOCUMENTED_INVOCATIONS):
            result = spawn(cli_command(argv), cwd, logs / str(index))
            if result.returncode != 0:
                print(f"{' '.join(argv)}: exit code {result.returncode}", file=sys.stderr)
                return 1
            records.append({"argv": argv, **collect_outputs(cwd, argv, result.stdout)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps({"invocations": records}, indent=1) + "\n")
    print(f"wrote {len(records)} invocations to {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
