"""Network substrate: IP address space, geolocation, DNS, failure processes."""

from repro.netsim.asn import ASRecord, ASRegistry
from repro.netsim.dns import DNSError, DNSServer, NXDOMAIN, Record, Zone
from repro.netsim.geoip import GeoIPDatabase
from repro.netsim.ip import AddressAllocator, Netblock, NetblockIndex

__all__ = [
    "AddressAllocator",
    "Netblock",
    "NetblockIndex",
    "GeoIPDatabase",
    "DNSServer",
    "DNSError",
    "NXDOMAIN",
    "Record",
    "Zone",
    "ASRecord",
    "ASRegistry",
]
