import os
import sys

# No subcommand does linear algebra, so one BLAS thread spares each run the
# start of OpenBLAS's thread pool. It must be set before numpy is first
# imported, which importing the package does not do; a value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

sys.exit(main())
