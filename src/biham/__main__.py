"""``python -m biham``: the ``biham`` command line."""

from .cli import main

raise SystemExit(main())
