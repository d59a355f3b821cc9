#!/usr/bin/env python3
"""Size of a Python package: lines and tokens of each module, and totals.

Lines are the lines of each file.  Tokens are the ones ``tokenize``
reads, less those that carry no code: strings (docstrings among them),
comments, layout (NEWLINE, NL, INDENT, DEDENT and ENDMARKER) and the
ENCODING token that opens each stream.  So a comment or a docstring
moves the line count and not the token count.

    python3 scripts/code_size.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to this checkout's ``src/ctkernel``.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ctkernel"
NOT_CODE = {tokenize.STRING, tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def module_size(path: Path) -> tuple:
    """(lines, code tokens) of one source file."""
    source = path.read_bytes()
    tokens = tokenize.tokenize(io.BytesIO(source).readline)
    return len(source.splitlines()), sum(tok.type not in NOT_CODE for tok in tokens)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = ap.parse_args()
    total_lines = total_tokens = 0
    print(f"{'module':16} {'lines':>6} {'tokens':>7}")
    for path in sorted(args.package.glob("*.py")):
        lines, tokens = module_size(path)
        total_lines += lines
        total_tokens += tokens
        print(f"{path.name:16} {lines:6} {tokens:7}")
    print(f"{'total':16} {total_lines:6} {total_tokens:7}")


if __name__ == "__main__":
    main()
