"""The process entry: `python -m tunneltime` and the `tunneltime` script.

`run` turns off the cyclic garbage collector for the life of the process.
A CLI run is short, and the collector finds nothing in it: a serial grid
makes no reference cycles (`test_serial_grid_makes_no_reference_cycles`
holds this).  With the collector on, a run still sets off some fifty
collections of the young generations while numpy and the package import,
and interpreter exit makes a full pass over the ~21.5k tracked objects of
the import heap.

* `gc.disable()` runs before `cli` is imported (numpy loads later, with
  the first grid point), so no import pays for a collection.
* `gc.freeze()` runs after `cli.main` returns, so the exit pass neither
  traverses nor frees the import heap.  Atexit handlers and file flushes
  still run.

`cli.main` stays the library entry: pytest, `scripts/reproduce.py` and any
other in-process caller keep their collector as it is.
"""

import gc


def run() -> int:
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
