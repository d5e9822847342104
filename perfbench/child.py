"""One sweep in a fresh interpreter: `python3 child.py SPEC.json`.

The spec names the tokengraphs source tree, the CLI argv, the file that
receives the CLI's stdout and the file for this process's measurements.
Every record line written to stdout is time-stamped as it is written.  With
a trace path the tracer wraps the layer seams first and the spans are
written there after the sweep.  With setup_only the process stops where the
sweep would start, which samples set-up time alone.
"""

import json
import os
import sys
from time import monotonic_ns as now


class StampedStream:
    """A text stream that records the time of every newline written to it."""

    def __init__(self, fh):
        self.fh = fh
        self.stamps: list[int] = []
        self.bytes = 0

    def write(self, text: str) -> int:
        n = self.fh.write(text)
        self.bytes += len(text)
        for _ in range(text.count("\n")):
            self.stamps.append(now())
        return n

    def flush(self) -> None:
        self.fh.flush()


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    from tokengraphs import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"tokengraphs imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    main_call = cli.main
    tr = None
    if spec["trace"]:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
        main_call = tr.full("cli.main", cli.main)
    meta: dict = {}
    with open(spec["out"], "w", encoding="utf-8") as out:
        stream = StampedStream(out)
        real, sys.stdout = sys.stdout, stream
        meta["t0"] = now()
        if not spec["setup_only"]:
            meta["code"] = main_call(spec["argv"])
            meta["t1"] = now()
        sys.stdout = real
    if not spec["setup_only"]:
        import resource

        meta["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        meta["stamps"] = stream.stamps
        meta["output_bytes"] = stream.bytes
        if tr is not None:
            meta["layers"] = tracer.layer_metrics(tr)
            meta["table"] = tracer.self_table(tr)
            tr.write(spec["trace"])
    with open(spec["meta"], "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
