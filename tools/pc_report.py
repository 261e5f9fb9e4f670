#!/usr/bin/env python3
"""Self-time report of the PC samples pc_sampler writes.

    python3 tools/pc_report.py FILE [FILE ...]

Each FILE is a TMX_PCSAMPLE_OUT.<pid> file (see tools/pc_sampler.cpp). The
script finds the executable segment each sampled program counter falls in,
subtracts that object's load bias to get its link-time address, symbolizes
the distinct addresses with `addr2line -f -C` (the innermost inlined
function and its source line), and sums the samples of all files. It
prints the total, then the 25 functions and the 25 source lines with the
largest share of self time. Samples outside a loaded file count as
"[unmapped]", addresses addr2line cannot name as "[BINARY+0xADDR]".
"""
import bisect
import collections
import os
import subprocess
import sys

ROWS = 25


def read_samples(path, counts):
    """Adds one file's samples to counts[(binary, link-time address)];
    returns how many it added and the file's dropped count."""
    with open(path) as f:
        header = f.readline().split()
        if not header or header[0] != "tmx-pcsample-v1":
            sys.exit(f"pc_report: {path}: not a pc_sampler file")
        fields = dict(zip(header[1::2], header[2::2]))
        maps, pcs = [], []
        for line in f:
            if line.startswith("map "):
                _, lo, hi, bias, binary = line.rstrip("\n").split(" ", 4)
                maps.append((int(lo, 16), int(hi, 16), int(bias, 16), binary))
            else:
                pcs.append(int(line, 16))
    maps.sort()
    starts = [m[0] for m in maps]
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            counts[("[unmapped]", 0)] += 1
            continue
        _, _, bias, binary = maps[i]
        counts[(binary, pc - bias)] += 1
    return len(pcs), int(fields.get("dropped", 0))


def symbolize(binary, addrs):
    """{addr: (function, "file:line")} from one addr2line process."""
    proc = subprocess.run(
        ["addr2line", "-f", "-C", "-e", binary],
        input="".join(f"{a:x}\n" for a in addrs),
        capture_output=True, text=True, check=False)
    out = proc.stdout.splitlines()
    names = {}
    for k, a in enumerate(addrs):
        fn = out[2 * k] if 2 * k < len(out) else "??"
        where = out[2 * k + 1] if 2 * k + 1 < len(out) else "??:0"
        where = where.split(" (discriminator")[0]
        if fn == "??":
            fn = f"[{os.path.basename(binary)}+0x{a:x}]"
        names[a] = (fn, where)
    return names


def main():
    files = sys.argv[1:]
    if not files or any(f.startswith("-") for f in files):
        sys.exit("usage: pc_report.py FILE [FILE ...]")

    addrs = collections.Counter()
    total = dropped = 0
    for path in files:
        n, d = read_samples(path, addrs)
        total += n
        dropped += d
    if total == 0:
        sys.exit("pc_report: no samples")

    per_binary = collections.defaultdict(dict)
    for (binary, addr), n in addrs.items():
        per_binary[binary][addr] = n
    functions = collections.Counter()
    lines = collections.Counter()
    for binary, by_addr in per_binary.items():
        if binary == "[unmapped]":
            functions["[unmapped]"] += sum(by_addr.values())
            continue
        names = symbolize(binary, sorted(by_addr))
        for addr, n in by_addr.items():
            fn, where = names[addr]
            functions[fn] += n
            lines[where if not where.startswith("??") else
                  f"[no line: {fn}]"] += n

    print(f"samples {total} in {len(files)} file(s)"
          + (f", {dropped} dropped past the buffer" if dropped else ""))
    print(f"{'self%':>6} {'samples':>8}  function")
    for fn, n in functions.most_common(ROWS):
        print(f"{100.0 * n / total:6.2f} {n:8d}  {fn[:110]}")
    print(f"{'self%':>6} {'samples':>8}  line")
    for where, n in lines.most_common(ROWS):
        print(f"{100.0 * n / total:6.2f} {n:8d}  {where}")


if __name__ == "__main__":
    main()
