#!/usr/bin/env bash
# Unsafe-audit gate.
#
# Policy (enforced here and by crate attributes):
#   * `unsafe` is allowed ONLY in crates/store/src/mmap.rs and
#     crates/store/src/format.rs (the mmap zero-copy path),
#     crates/obs/src/alloc.rs (the counting global allocator's
#     GlobalAlloc impl, which is unsafe by signature), and
#     crates/daemon/src/signal.rs (signal(2) registration FFI; the
#     handler body is a single atomic store);
#   * every unsafe site there must carry a `// SAFETY:` comment within
#     the six lines above it;
#   * every other workspace crate root carries #![forbid(unsafe_code)],
#     and at_store/at_obs/at_daemon carry
#     #![deny(unsafe_op_in_unsafe_fn)].
#
# The bench crate's criterion bench targets and the vendor shims are
# separate crate roots outside crates/*/src and are not covered by this
# audit.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'EOF'
import glob
import re
import sys

errors = []

# The audited sites may move, but not multiply unnoticed: raising this cap
# is a reviewed change of its own.
MAX_SITES = 17

ALLOWED = {
    "crates/store/src/mmap.rs",
    "crates/store/src/format.rs",
    "crates/obs/src/alloc.rs",
    "crates/daemon/src/signal.rs",
}


def code_mentions_unsafe(line):
    code = line.split("//")[0]
    if "unsafe_code" in code or "unsafe_op_in_unsafe_fn" in code:
        return False  # the lint attributes themselves
    return re.search(r"\bunsafe\b", code) is not None


sources = sorted(
    set(glob.glob("crates/*/src/**/*.rs", recursive=True))
    | set(glob.glob("src/**/*.rs", recursive=True))
)
audited = 0
for path in sources:
    with open(path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if not code_mentions_unsafe(line):
            continue
        if path not in ALLOWED:
            errors.append(f"{path}:{i + 1}: unsafe outside the audited modules")
            continue
        audited += 1
        window = lines[max(0, i - 6) : i]
        if not any("SAFETY:" in w for w in window):
            errors.append(f"{path}:{i + 1}: unsafe site without a `// SAFETY:` comment")

if audited > MAX_SITES:
    errors.append(f"{audited} unsafe sites, more than the {MAX_SITES} audited")

for lib in sorted(glob.glob("crates/*/src/lib.rs")):
    with open(lib) as f:
        text = f.read()
    if lib in (
        "crates/store/src/lib.rs",
        "crates/obs/src/lib.rs",
        "crates/daemon/src/lib.rs",
    ):
        if "#![deny(unsafe_op_in_unsafe_fn)]" not in text:
            errors.append(f"{lib}: missing #![deny(unsafe_op_in_unsafe_fn)]")
    elif "#![forbid(unsafe_code)]" not in text:
        errors.append(f"{lib}: missing #![forbid(unsafe_code)]")
if "#![forbid(unsafe_code)]" not in open("src/lib.rs").read():
    errors.append("src/lib.rs: missing #![forbid(unsafe_code)]")

if errors:
    print("unsafe audit FAILED:")
    for e in errors:
        print(f"  {e}")
    sys.exit(1)
print(
    f"unsafe audit OK: {audited} documented unsafe site(s), all confined to "
    "crates/store/src/{mmap,format}.rs, crates/obs/src/alloc.rs and "
    "crates/daemon/src/signal.rs"
)
EOF
