"""Record the cli-session golden outputs from the library as it is now.

usage: python3 bench/regolden.py

Runs every cli-session case that must succeed once and writes its stdout and
the SHA-256 of each file it writes to golden/cli.json. Malformed-input cases
are not recorded: their expectation is fixed (exit 2, stderr "error: ...").
Regenerate only for a deliberate output change, and review the diff.
"""

import json
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def main() -> int:
    session = workloads.CliSession(seed=0, ledger_ops=0)
    golden = {}
    for case, args in sorted(session.cases.items()):
        if case.startswith("malformed:"):
            continue
        _, code, out, err = session.run_case(case)
        if code != 0:
            print(f"error: {case} exited {code}: {err}", file=sys.stderr)
            return 1
        files = {}
        for rel in (workloads.RANDOM_OUT, workloads.SCAN_OUT):
            path = workloads.ROOT / rel
            if rel in args and path.exists():
                files[rel] = workloads.sha256(path)
                path.unlink()
        golden[case] = {"stdout": out, "files": files}
    path = workloads.GOLDEN_DIR / "cli.json"
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    print(f"wrote {path.relative_to(workloads.ROOT)} ({len(golden)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
