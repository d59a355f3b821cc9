"""``scripts/code_size.py``: lines move with comments and docstrings,
code tokens do not."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_size.py"

MODULE = "def f(x):\n    return x + 1\n"
COMMENTED = '"""A module."""\n\n\ndef f(x):\n    # one more\n    """Add one."""\n    return x + 1\n'


def sizes(package: Path) -> dict:
    out = subprocess.run([sys.executable, str(SCRIPT), str(package)], check=True,
                         capture_output=True, text=True).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    return {name: (int(lines), int(tokens)) for name, lines, tokens in rows}


def test_comments_and_docstrings_move_lines_not_tokens(tmp_path):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("X = 1\n")
    before = sizes(tmp_path)
    assert before == {"a.py": (2, 10), "b.py": (1, 3), "total": (3, 13)}
    (tmp_path / "a.py").write_text(COMMENTED)
    after = sizes(tmp_path)
    assert after["a.py"] == (7, 10)
    assert after["total"] == (8, 13)
