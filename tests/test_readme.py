import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_as_written(capsys):
    # the block asserts that a full grid solved directly and as a one-term
    # plan price bitwise alike; it ends by printing three prices
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "quick_start"})
    prices = [float(v) for v in capsys.readouterr().out.split()]
    assert len(prices) == 3 and all(math.isfinite(p) and p > 0.0 for p in prices)
