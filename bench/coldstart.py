"""One cold start: import the command line and load every input document.

Usage: python3 coldstart.py SRC_DIR DOC_LIST

DOC_LIST holds one "space PATH" or "metric PATH" line per document; each is
parsed the way the `netline` command line parses it.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

import netline.cli  # noqa: E402,F401
from netline.formats import loads_space, parse_metric_space  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as listing:
    for line in listing:
        kind, path = line.rstrip("\n").split(" ", 1)
        with open(path, encoding="utf-8") as doc:
            text = doc.read()
        if kind == "space":
            loads_space(text, location=path)
        else:
            parse_metric_space(json.loads(text), location=path)
