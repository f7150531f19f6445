"""One fresh-process set-up, timed from outside by run.py as setup_s.

    python3 bench/setup_probe.py WORKLOAD DIR

Imports the package (which builds the field tables), builds the CLI parser
and writes the workload's input files into the existing directory DIR,
then exits.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sdgqc.cli  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    name, workdir = sys.argv[1:3]
    sdgqc.cli.build_parser()
    workloads.WORKLOADS[name].write_inputs(workdir)
