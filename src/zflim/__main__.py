"""Entry point of ``python -m zflim``, the same command line as ``zflim``."""

from .cli import main

raise SystemExit(main())
