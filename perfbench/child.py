"""Entry point of a round's fresh interpreter.

``python -m perfbench.child '{"fn": "module:function", "args": [...]}'``
imports the function, calls it with the arguments and writes its JSON
result as the last line of standard output. A raised exception exits
non-zero with its traceback on standard error.
"""

import importlib
import json
import sys

from perfbench.common import send_message


def main(argv) -> int:
    spec = json.loads(argv[1])
    module_name, _, name = spec["fn"].partition(":")
    fn = getattr(importlib.import_module(module_name), name)
    send_message(fn(*spec["args"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
