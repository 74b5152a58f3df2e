#!/usr/bin/env python3
"""Run clippy over this crate under the workspace's clippy.toml and compare
its report with the `//~ lint` marks in src/: every mark reported, nothing
reported without a mark. CI runs it; it needs no network."""
import collections, json, os, pathlib, re, subprocess, sys

here = pathlib.Path(__file__).resolve().parent
root = next(p for p in here.parents if (p / "clippy.toml").is_file())
want = collections.Counter()
for src in sorted((here / "src").glob("*.rs")):
    for n, line in enumerate(src.read_text().splitlines(), 1):
        mark = re.search(r"//~ (.*)$", line)
        for lint in mark.group(1).split() if mark else []:
            want[(f"src/{src.name}", n, lint)] += 1

out = subprocess.run(
    ["cargo", "clippy", "--quiet", "--offline", "--message-format=json",
     "--manifest-path", str(here / "Cargo.toml"),
     "--target-dir", str(root / "target" / "clippy_fixture")],
    env={**os.environ, "CLIPPY_CONF_DIR": str(root)},
    stdout=subprocess.PIPE, text=True, check=False).stdout
got = collections.Counter()
for line in out.splitlines():
    msg = json.loads(line).get("message") or {}
    spans = [s for s in msg.get("spans", []) if s["is_primary"]]
    if msg.get("level") in ("warning", "error") and spans:
        code = ((msg.get("code") or {}).get("code") or msg["message"]).removeprefix("clippy::")
        got[(spans[0]["file_name"], spans[0]["line_start"], code)] += 1

for what, diff in (("not reported", want - got), ("reported without a mark", got - want)):
    for (file, line, lint), n in sorted(diff.items()):
        print(f"{file}:{line}: {lint} x{n} {what}")
if want != got or not want:
    sys.exit(1)
by_lint = collections.Counter(lint for (_, _, lint), n in got.items() for _ in range(n))
print("ok:", ", ".join(f"{lint} x{n}" for lint, n in sorted(by_lint.items())))
