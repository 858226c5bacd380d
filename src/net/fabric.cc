#include "net/fabric.hh"

#include <cassert>
#include <iomanip>

namespace ccn::net {

NicPortHooks
hooksFor(driver::NicInterface &nic)
{
    NicPortHooks h;
    h.setTxSink =
        [&nic](std::function<void(int, const WirePacket &)> sink) {
            nic.setTxSink(std::move(sink));
        };
    h.injectRx = [&nic](int q, const WirePacket &pkt) {
        nic.injectRx(q, pkt);
    };
    h.numQueues = nic.numQueues();
    return h;
}

std::uint32_t
Fabric::attach(const std::string &name, NicPortHooks hooks,
               const LinkConfig &uplink, const LinkConfig &downlink)
{
    auto port = std::make_unique<Port>();
    Port *p = port.get();
    p->name = name;
    p->addr = static_cast<std::uint32_t>(ports_.size()) + 1;
    p->hooks = std::move(hooks);
    p->up = std::make_unique<Link>(sim_, uplink, name + ".up");
    p->down = std::make_unique<Link>(sim_, downlink, name + ".down");

    const int sw_port = switch_.addPort(p->down.get());
    switch_.bind(p->addr, sw_port);

    // Uplink terminates at the switch.
    Switch *sw = &switch_;
    p->up->setSink([sw, sw_port](const WirePacket &pkt) {
        sw->ingress(sw_port, pkt);
    });

    // Downlink terminates at the NIC: RSS-steer the flow onto one of
    // its RX queues.
    p->down->setSink([p](const WirePacket &pkt) {
        p->rxPackets++;
        p->rxBytes += pkt.len;
        p->hooks.injectRx(rssQueue(pkt.flowId, p->hooks.numQueues),
                          pkt);
    });

    // NIC TX enters the uplink, stamped with the port address.
    const std::uint32_t addr = p->addr;
    p->hooks.setTxSink([p, addr](int, const WirePacket &pkt) {
        WirePacket out = pkt;
        if (out.src == 0)
            out.src = addr;
        p->up->send(out);
    });

    ports_.push_back(std::move(port));
    return addr;
}

const Fabric::Port &
Fabric::portFor(std::uint32_t addr) const
{
    assert(addr >= 1 && addr <= ports_.size());
    return *ports_[addr - 1];
}

PortCounters
Fabric::counters(std::uint32_t addr) const
{
    const Port &p = portFor(addr);
    const LinkStats &up = p.up->stats();
    const LinkStats &down = p.down->stats();
    PortCounters c;
    c.txPackets = up.txPackets;
    c.txBytes = up.txBytes;
    c.txDrops = up.drops;
    c.rxPackets = p.rxPackets;
    c.rxBytes = p.rxBytes;
    c.rxDrops = down.drops;
    c.faultDrops = up.faultDrops + down.faultDrops;
    c.downDrops = up.downDrops + down.downDrops;
    c.dups = up.dups + down.dups;
    c.reorders = up.reorders + down.reorders;
    c.corrupts = up.corrupts + down.corrupts;
    return c;
}

Link &
Fabric::uplinkOf(std::uint32_t addr)
{
    return *ports_[addr - 1]->up;
}

Link &
Fabric::downlinkOf(std::uint32_t addr)
{
    return *ports_[addr - 1]->down;
}

void
Fabric::report(std::ostream &os) const
{
    os << "fabric ports:\n";
    for (const auto &p : ports_) {
        const PortCounters c = counters(p->addr);
        os << "  " << std::left << std::setw(12) << p->name
           << " tx " << c.txPackets << " pkts / " << c.txBytes
           << " B (drops " << c.txDrops << ")"
           << "  rx " << c.rxPackets << " pkts / " << c.rxBytes
           << " B (drops " << c.rxDrops << ")";
        if (c.faultDrops || c.downDrops || c.dups || c.reorders ||
            c.corrupts) {
            os << "  faults: lost " << c.faultDrops << ", dark "
               << c.downDrops << ", dup " << c.dups << ", reord "
               << c.reorders << ", corrupt " << c.corrupts;
        }
        os << "\n";
    }
    const SwitchStats &s = switch_.stats();
    os << "  switch: forwarded " << s.forwarded << ", unknown-dst drops "
       << s.unknownDrops << ", reflect drops " << s.reflectDrops << "\n";
}

} // namespace ccn::net
