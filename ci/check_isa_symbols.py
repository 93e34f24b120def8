#!/usr/bin/env python3
"""Symbol-isolation check for a per-ISA batch object.

The lockstep batch engine is compiled once more per wider x86-64 ISA
(see the "per-ISA lockstep batch" block of CMakeLists.txt). Such an
object must not define, as weak or global, any symbol the rest of the
program could bind to: the linker keeps one copy of each weak symbol
for the whole program, so an inline function compiled for AVX-512
could end up serving baseline code (wrong instructions), and a kernel
taking LaneVec<8> by value could be called with another ISA's calling
convention. Allowed are only:

  - symbols inside the object's own lane namespace (--namespace);
  - the object's factory (--factory), its one way in.

Usage:
  check_isa_symbols.py [--nm nm] --namespace lanes_x86_64_v4 \\
      --factory make_session_batch_lanes_x86_64_v4 OBJECT

Exits 1 and lists the offending symbols when any other symbol is weak
or global.
"""
import argparse
import subprocess
import sys

# nm type letters of defined symbols that other objects can bind to:
# upper case is global (W/V weak), 'u' a GNU unique global, 'i' an
# indirect function.
EXPORTED = set("ABCDGIRSTVWu") | {"i"}


def exported_symbols(nm, obj):
    out = subprocess.run([nm, "--defined-only", "-C", obj], check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        parts = line.split(maxsplit=2)
        if len(parts) == 3 and parts[1] in EXPORTED:
            yield parts[1], parts[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--nm", default="nm")
    ap.add_argument("--namespace", required=True)
    ap.add_argument("--factory", required=True)
    ap.add_argument("object")
    args = ap.parse_args()

    ns = f"::{args.namespace}::"
    allowed, bad = [], []
    for kind, name in exported_symbols(args.nm, args.object):
        if ns in name or name.split("(")[0].endswith(args.factory):
            allowed.append(name)
        else:
            bad.append(f"{kind} {name}")
    failed = False
    if bad:
        print(f"{args.object}: {len(bad)} weak/global symbol(s) outside "
              f"{args.namespace} besides {args.factory}:")
        for line in bad[:40]:
            print("  " + line)
        if len(bad) > 40:
            print(f"  ... and {len(bad) - 40} more")
        failed = True
    if not any(name.split("(")[0].endswith(args.factory) for name in allowed):
        print(f"{args.object}: factory {args.factory} is not exported")
        failed = True
    if failed:
        return 1
    print(f"{args.object}: isolated ({len(allowed)} exported symbol(s), "
          f"all in {args.namespace} or the factory)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
