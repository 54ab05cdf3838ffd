"""Traced ``repro gateway``: install the span wrappers, then run the CLI.

Usage (from the checkout root, with ``src`` and the root on PYTHONPATH)::

    python3 perfbench/gateway_shim.py TRACE_OUT METRICS_OUT SETUP_OUT \\
        -- gateway --journal-dir DIR ...

The gateway arguments after ``--`` are passed to ``repro.cli.main``
unchanged, plus ``--trace-out TRACE_OUT --metrics-out METRICS_OUT``;
the CLI writes its last metrics snapshot after the clean stop has
merged the workers' registries. The shim then writes the set-up
timings it measured to SETUP_OUT as JSON.
"""

from __future__ import annotations

import json
import sys


def main(argv):
    split = argv.index("--")
    trace_out, metrics_out, setup_out = argv[:split]
    cli_args = argv[split + 1:]

    from perfbench.tracehooks import GatewayHooks
    hooks = GatewayHooks()
    hooks.install()

    import repro.cli
    code = repro.cli.main(cli_args + ["--trace-out", trace_out,
                                      "--metrics-out", metrics_out])
    with open(setup_out, "w", encoding="utf-8") as stream:
        json.dump(hooks.setup, stream, indent=2, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
