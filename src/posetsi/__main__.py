"""``python -m posetsi`` runs the command-line interface of ``cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
