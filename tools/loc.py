#!/usr/bin/env python3
"""Count lines of C++ code the way DESIGN.md §17 does.

A code line is one left non-blank once `//` and `/* */` comments are
stripped; comment markers inside string and character literals do not
start a comment. Only C++ sources (.cc, .hh, .cpp, .h, .hpp) count.

Usage:
    python3 tools/loc.py [--rev REV] PATH...

Each PATH, relative to the repository root, is a directory (counted
recursively), a file, or a glob such as 'examples/*.cpp' (quote it so
that it also matches under --rev). Prints one count per PATH and, for more than one, their
total. With --rev the files come from that git revision instead of
the working tree, so a change's before and after come from one
command:

    python3 tools/loc.py --rev HEAD^ src bench 'examples/*.cpp'
    python3 tools/loc.py src bench 'examples/*.cpp'
"""

import argparse
import fnmatch
import os
import subprocess
import sys

EXTENSIONS = (".cc", ".hh", ".cpp", ".h", ".hpp")


def strip_comments(text):
    """Return @p text with every comment replaced by blanks, newlines kept."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif c == "R" and nxt == '"' and (i == 0 or not
                                          (text[i - 1].isalnum() or
                                           text[i - 1] == "_")):
            # Raw string: R"delim( ... )delim".
            k = text.find("(", i + 2)
            close = ")" + text[i + 2:k] + '"'
            j = text.find(close, k + 1)
            end = n if j < 0 else j + len(close)
            out.append(text[i:end])
            i = end
        elif c == '"' or (c == "'" and not (i > 0 and
                                            text[i - 1].isalnum())):
            # String or character literal; a quote after a digit is a
            # digit separator (1'000), not a literal.
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def code_lines(text):
    return sum(1 for line in strip_comments(text).split("\n")
               if line.strip())


def matches(path, spec):
    spec = spec.rstrip("/")
    if any(ch in spec for ch in "*?["):
        return fnmatch.fnmatchcase(path, spec)
    return path == spec or path.startswith(spec + "/")


def worktree_files():
    # Tracked files plus new ones not ignored, as the next commit sees.
    out = subprocess.run(["git", "ls-files", "--cached", "--others",
                          "--exclude-standard"], check=True,
                         capture_output=True, text=True).stdout
    return [f for f in out.splitlines() if os.path.isfile(f)]


def rev_files(rev):
    out = subprocess.run(["git", "ls-tree", "-r", "--name-only", rev],
                         check=True, capture_output=True,
                         text=True).stdout
    return out.splitlines()


def read(path, rev):
    if rev is None:
        with open(path, encoding="utf-8") as f:
            return f.read()
    return subprocess.run(["git", "show", f"{rev}:{path}"], check=True,
                          capture_output=True, text=True).stdout


def main():
    ap = argparse.ArgumentParser(
        description="Count code lines (DESIGN.md §17) per path.")
    ap.add_argument("--rev", help="count this git revision's files")
    ap.add_argument("paths", nargs="+")
    args = ap.parse_args()

    # Paths are relative to the repository root, wherever this runs.
    os.chdir(subprocess.run(["git", "rev-parse", "--show-toplevel"],
                            check=True, capture_output=True,
                            text=True).stdout.strip())
    files = [f for f in (rev_files(args.rev) if args.rev
                         else worktree_files())
             if f.endswith(EXTENSIONS)]
    total = 0
    for spec in args.paths:
        count = sum(code_lines(read(f, args.rev))
                    for f in files if matches(f, spec))
        total += count
        print(f"{count:>8,}  {spec}")
    if len(args.paths) > 1:
        print(f"{total:>8,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
