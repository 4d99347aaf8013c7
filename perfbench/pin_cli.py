"""Write cli_expected.json: the pinned `qwebs` calls of the cli workload.

Each call is run once as `python3 -m qwebs.cli <argv>` against ../src, and its
exit code and a SHA-256 of its stdout are stored. Stderr is not pinned, so
that diagnostics may be added to it without touching stdout. The one call
that hangs at the pinned commit (`ext-dim` on two N=3 digon-shaped webs)
stores instead the `qwebs form` output of the same two webs: if the call
ever finishes, its dim0 + dim1 must equal that form.

Run from the repository root: python3 perfbench/pin_cli.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FRUNG = "N=2 m=2 base=[2,0] rungs=[F1^1]"
DIGON = "N=2 m=2 base=[2,0] rungs=[F1^1, E1^1]"
FEF = "N=2 m=2 base=[2,0] rungs=[F1^1, E1^1, F1^1]"
EMPTY = "N=2 m=2 base=[2,0] rungs=[]"
N3_F = "N=3 m=2 base=[3,0] rungs=[F1^1]"
N3_FF = "N=3 m=2 base=[3,0] rungs=[F1^1, F1^1]"
N3_F2 = "N=3 m=2 base=[3,0] rungs=[F1^2]"
N3_LOOP = "N=3 m=2 base=[3,0] rungs=[F1^2, E1^1, E1^1]"
N3_M3 = "N=3 m=3 base=[3,0,0] rungs=[F1^2, F2^1]"

CALLS = [
    ["enumerate", "m=2", "d=2", "N=2"],
    ["enumerate", "--json", "m=2", "d=2", "N=2"],
    ["enumerate", "m=3", "d=4", "N=3"],
    ["enumerate", "--json", "m=3", "d=4", "N=3"],
    ["ladder", "N=2", "m=2", "d=2", "lambda=[2]", "seq=E1*F1^1"],
    ["ladder", "--json", "N=2", "m=2", "d=2", "lambda=[2]", "seq=E1*F1^1"],
    ["ladder", "N=3", "m=3", "d=3", "lambda=[3,0]", "seq=F2^1*F1^2"],
    ["eval", DIGON],
    ["eval", "--json", DIGON],
    ["eval", N3_LOOP],
    ["form", FRUNG, FEF],
    ["form", "--json", FRUNG, FEF],
    ["form", N3_FF, N3_F2],
    ["form", "--json", N3_FF, N3_F2],
    ["gram", "N=2", "m=2", "d=2", "lambda=[2]", "seqs=F1^1; F1^1*E1^1*F1^1"],
    ["gram", "--json", "N=2", "m=2", "d=2", "lambda=[2]", "seqs=F1^1*E1^1; F1^1"],
    ["verify-relations", "N=2"],
    ["verify-relations", "--json", "N=2"],
    ["verify-relations", "N=3", "rules=digon,associativity"],
    ["compile-mf", FRUNG],
    ["compile-mf", "--json", FRUNG],
    ["compile-mf", N3_M3],
    ["compile-mf", "--json", N3_M3],
    ["ext-dim", FRUNG, FRUNG],
    ["ext-dim", "--json", FRUNG, FEF],
    ["ext-dim", N3_F, N3_F],
    # input errors, exit 1
    ["enumerate", "m=2", "d=2"],
    ["enumerate", "m=2", "m=3", "d=2", "N=2"],
    ["eval", FRUNG],
    ["form", EMPTY, "garbage"],
    ["gram", "N=2", "m=2", "d=2", "lambda=[2]", "seqs=1; F1^1"],
    ["verify-relations", "N=2", "rules=pentagon"],
    ["ext-dim", EMPTY, FRUNG],
    ["frobnicate"],
]
HANG = ["ext-dim", N3_FF, N3_F2]
HANG_TIMEOUT_S = 20


def _qwebs(argv, timeout=None):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "qwebs.cli", *argv], capture_output=True,
                          env=env, cwd=ROOT, timeout=timeout)


def main():
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=ROOT).stdout.strip() or None
    calls = []
    for argv in CALLS:
        proc = _qwebs(argv, timeout=60)
        calls.append({"argv": argv, "exit": proc.returncode,
                      "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()})
    try:
        _qwebs(HANG, timeout=HANG_TIMEOUT_S)
        raise SystemExit(f"{HANG} finished; it is pinned as the hanging call")
    except subprocess.TimeoutExpired:
        pass
    form = _qwebs(["form", *HANG[1:]], timeout=60).stdout.decode().strip()
    calls.append({"argv": HANG, "form": form})
    doc = {
        "note": ("Produced by perfbench/pin_cli.py at the commit below. The last call ran past "
                 f"{HANG_TIMEOUT_S} s there and is pinned by the form of its two webs."),
        "commit": commit,
        "python": platform.python_version(),
        "calls": calls,
    }
    with open(os.path.join(HERE, "cli_expected.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
