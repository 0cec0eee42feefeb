"""`python -m detangle`: the same entry point as the `detangle` command."""

from .cli import main

if __name__ == "__main__":
    main()
