"""``python -m uaperceiver``: the command-line front end (``cli``)."""

from .cli import main

raise SystemExit(main())
