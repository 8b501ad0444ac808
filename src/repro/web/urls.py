"""URL utilities: normalisation, domain extraction and same-site checks."""

from __future__ import annotations

from urllib.parse import urlsplit, urlunsplit

from ..errors import ValidationError

#: Multi-label public suffixes we care about (enough for news/academic domains).
_TWO_LABEL_SUFFIXES = {
    "co.uk", "ac.uk", "gov.uk", "org.uk",
    "com.au", "edu.au", "gov.au",
    "co.jp", "ac.jp",
    "com.br", "gov.br",
    "co.in", "ac.in",
}


def normalize_url(url: str) -> str:
    """Return a canonical form of ``url``.

    Lower-cases scheme and host, strips fragments, default ports and trailing
    slashes on non-root paths, and removes common tracking query parameters.
    """
    if not url or "://" not in url:
        raise ValidationError(f"not an absolute url: {url!r}")
    scheme, netloc, path, query, _fragment = urlsplit(url)
    scheme = scheme.lower()
    netloc = netloc.lower()
    if netloc.endswith(":80") and scheme == "http":
        netloc = netloc[:-3]
    if netloc.endswith(":443") and scheme == "https":
        netloc = netloc[:-4]
    if path != "/" and path.endswith("/"):
        path = path.rstrip("/")
    if not path:
        path = "/"
    if query:
        kept = [
            pair
            for pair in query.split("&")
            if pair and not pair.lower().startswith(("utm_", "fbclid=", "gclid=", "ref="))
        ]
        query = "&".join(kept)
    return urlunsplit((scheme, netloc, path, query, ""))


def domain_of(url: str) -> str:
    """Return the full host of ``url`` (without port), lower-cased."""
    host = urlsplit(url).netloc.lower()
    if "@" in host:
        host = host.rsplit("@", 1)[1]
    if ":" in host:
        host = host.split(":", 1)[0]
    if not host:
        raise ValidationError(f"url has no host: {url!r}")
    return host


def registered_domain(host_or_url: str) -> str:
    """Return the registrable domain of a host or URL.

    ``news.example.com`` → ``example.com``; ``www.bbc.co.uk`` → ``bbc.co.uk``.
    A small built-in list of two-label public suffixes covers the domains used
    by the platform; everything else falls back to the last two labels.
    """
    host = domain_of(host_or_url) if "://" in host_or_url else host_or_url.lower()
    host = host.strip(".")
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    last_two = ".".join(labels[-2:])
    if last_two in _TWO_LABEL_SUFFIXES and len(labels) >= 3:
        return ".".join(labels[-3:])
    return last_two


def is_same_site(url_a: str, url_b: str) -> bool:
    """True when both URLs (or hosts) share the same registrable domain."""
    return registered_domain(url_a) == registered_domain(url_b)

