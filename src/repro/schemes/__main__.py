"""Print the registered caching-scheme catalogue.

Usage::

    python -m repro.schemes
"""

from repro.schemes import available


def main() -> None:
    catalogue = available()
    width = max(len(name) for name, _ in catalogue)
    for name, description in catalogue:
        print(f"{name.ljust(width)}  {description}")


if __name__ == "__main__":
    main()
