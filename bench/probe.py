"""Fresh-interpreter probes for set-up and import time.

    python bench/probe.py import
        prints the seconds `import erlangreg.cli` takes in this interpreter.
    python bench/probe.py setup WORKLOAD WORKDIR
        imports the package and builds (for cli-batch: designs and writes)
        the workload's filters, as a user's process would before its first
        operation.  The caller times the whole process.
"""

import sys
import time


def main(argv):
    if argv[0] == "import":
        start = time.perf_counter()
        import erlangreg.cli  # noqa: F401
        print(repr(time.perf_counter() - start))
        return 0
    workload, workdir = argv[1], argv[2]
    import designs
    if workload == "cli-batch":
        from erlangreg.cli import main as cli_main
        kappa, p, kx, kt = designs.BASE
        return cli_main(["design", "--kappa", str(kappa), "--p", repr(p), "--kx", str(kx),
                         "--kt", str(kt), "--out", f"{workdir}/base.json"])
    import erlangreg
    designs.build_named(erlangreg, designs.WORKLOAD_DESIGNS[workload])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
