#include "net/switch.hh"

namespace ccn::net {

namespace {

constexpr sim::Tick kForwardLat = sim::fromNs(300.0); ///< Cut-through.

} // namespace

void
Switch::ingress(int in_port, const WirePacket &pkt)
{
    // Learn src -> ingress-port mappings.
    if (pkt.src != 0)
        table_.emplace(pkt.src, in_port);

    const auto it = table_.find(pkt.dst);
    if (it == table_.end()) {
        stats_.unknownDrops++;
        return;
    }
    if (it->second == in_port) {
        stats_.reflectDrops++;
        return;
    }

    Link *out = ports_[static_cast<std::size_t>(it->second)];
    stats_.forwarded++;
    sim_.scheduleCallback(sim_.now() + kForwardLat,
                          [out, pkt] { out->send(pkt); });
}

} // namespace ccn::net
