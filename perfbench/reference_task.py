"""The host reference task: fixed standard-library work, timed as a process.

The benchmark runs it before every `dq` operation and divides each
operation's mean wall time by this task's mean over the same run, so the
end-to-end ratios follow the program and not the shared host's speed,
which drifts by a fifth or more over minutes. It imports nothing from
`dqeval`, so no change to the program moves it. Its work resembles what
`dq evaluate` and `dq improve` spend their time on: CSV text, the
criterion-8 regex, JSON serialization and hashing. Its inputs are fixed;
it exits non-zero if any result is wrong.

    python3 perfbench/reference_task.py
"""

import csv
import hashlib
import io
import json
import random
import re
import sys

ROWS = 12_000
OCTET = "(25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)"
ADDRESS = re.compile(f"^{OCTET}(\\.{OCTET}){{3}}$")


def main() -> int:
    rng = random.Random(7)
    rows = [[f"PK{i:07d}", f"10.{i % 256}.{i * 7 % 256}.{i * 13 % 256}",
             str(rng.randint(0, 255)), rng.choice(["RED", "GREEN", "BLUE"])]
            for i in range(ROWS)]
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    parsed = list(csv.reader(io.StringIO(text.getvalue())))
    doc = {r[0]: {"ip": r[1], "n": int(r[2]), "colour": r[3],
                  "valid": ADDRESS.match(r[1]) is not None} for r in parsed}
    dumped = json.dumps(doc, sort_keys=True, indent=1)
    hashlib.sha256(dumped.encode("utf-8")).hexdigest()
    back = json.loads(dumped)
    ok = len(back) == ROWS and all(v["valid"] for v in back.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
