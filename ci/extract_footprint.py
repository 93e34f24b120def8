#!/usr/bin/env python3
"""Extracts the embedded library's memory footprint into BENCH_footprint.json.

Runs binutils `size` over every member of libicgkit_embedded.a and sums
the .text/.data/.bss columns — the flash and static-RAM cost a firmware
image pays for linking the streaming core — then records the largest
symbols from `nm --print-size` so a size regression names its culprits
instead of just a number. The JSON feeds ci/check_bench_regression.py
--only footprint, which gates the totals against the committed budget in
bench/bench_baselines.json.

With --image, it also records the `size` text column of one linked
firmware image (build-embedded/embed_smoke, linked with --gc-sections):
what a firmware that links the library actually carries, as opposed to
the archive sum, which counts every member whole. The image figure is
reported, not gated.

Usage:
  ci/extract_footprint.py --archive build-embedded/libicgkit_embedded.a \
      --out BENCH_footprint.json [--image build-embedded/embed_smoke] \
      [--compiler "$(gcc --version | head -1)"]
"""
import argparse
import json
import pathlib
import subprocess
import sys


def run(cmd):
    try:
        return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    except FileNotFoundError:
        sys.exit(f"FAIL: '{cmd[0]}' not found — binutils is required")
    except subprocess.CalledProcessError as e:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {e.returncode}:\n{e.stderr}")


def sum_sections(archive: str):
    """Sums the berkeley-format text/data/bss columns over all members."""
    text = data = bss = 0
    members = 0
    for line in run(["size", archive]).splitlines():
        parts = line.split()
        # "   text    data     bss     dec     hex filename"
        if len(parts) < 6 or not parts[0].isdigit():
            continue
        text += int(parts[0])
        data += int(parts[1])
        bss += int(parts[2])
        members += 1
    if members == 0:
        sys.exit(f"FAIL: `size {archive}` reported no object members")
    return text, data, bss, members


def image_text(image: str) -> int:
    """The text column of `size` for one linked executable."""
    for line in run(["size", image]).splitlines():
        parts = line.split()
        if len(parts) >= 6 and parts[0].isdigit():
            return int(parts[0])
    sys.exit(f"FAIL: `size {image}` reported no text column")


def top_symbols(archive: str, count: int):
    """The `count` largest defined symbols, for regression forensics."""
    symbols = []
    for line in run(["nm", "--print-size", "--size-sort", "--radix=d", archive]).splitlines():
        parts = line.split()
        # "<value> <size> <type> <name>"
        if len(parts) != 4 or not parts[1].isdigit():
            continue
        size, kind, name = int(parts[1]), parts[2], parts[3]
        if kind.lower() in ("u", "w"):
            continue
        symbols.append({"symbol": name, "bytes": size, "type": kind})
    symbols.sort(key=lambda s: s["bytes"], reverse=True)
    return symbols[:count]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--archive", required=True, help="static library to measure")
    ap.add_argument("--out", default="BENCH_footprint.json", help="output JSON path")
    ap.add_argument("--image", help="linked firmware image whose .text to report")
    ap.add_argument("--compiler", default="", help="compiler version string to record")
    ap.add_argument("--top", type=int, default=15, help="largest symbols to record")
    args = ap.parse_args()

    archive = pathlib.Path(args.archive)
    if not archive.exists():
        sys.exit(f"FAIL: archive {archive} does not exist — "
                 "build with -DICGKIT_EMBEDDED_PROFILE=ON first")

    text, data, bss, members = sum_sections(str(archive))
    result = {
        "archive": archive.name,
        "members": members,
        "text_bytes": text,
        "data_bytes": data,
        "bss_bytes": bss,
        "total_bytes": text + data + bss,
        "compiler": args.compiler,
        "top_symbols": top_symbols(str(archive), args.top),
    }
    if args.image:
        image = pathlib.Path(args.image)
        if not image.exists():
            sys.exit(f"FAIL: image {image} does not exist")
        result["image"] = {"file": image.name, "text_bytes": image_text(str(image))}
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"{archive.name}: .text {text / 1024.0:.1f} KiB, "
          f".data {data / 1024.0:.1f} KiB, .bss {bss / 1024.0:.1f} KiB "
          f"({members} members) -> {args.out}")
    if "image" in result:
        print(f"{result['image']['file']}: linked .text {result['image']['text_bytes']} B")
    return 0


if __name__ == "__main__":
    sys.exit(main())
