#include "compute/driver.hpp"

namespace nnfv::compute {

void attach_ports(const std::shared_ptr<NfInstance>& instance,
                  nnf::ContextId ctx, nfswitch::Lsi& lsi,
                  const std::vector<nfswitch::PortId>& ports) {
  for (std::size_t p = 0; p < ports.size(); ++p) {
    const auto in_port = static_cast<nnf::NfPortIndex>(p);
    (void)lsi.set_port_peer(
        ports[p], [instance, ctx, in_port](packet::PacketBurst&& burst) {
          instance->inject_burst(ctx, in_port, std::move(burst));
        });
  }
  instance->set_egress(ctx, [lsi = &lsi, ports](nnf::NfPortIndex out_port,
                                                packet::PacketBurst&& burst) {
    if (out_port < ports.size()) {
      lsi->receive_burst(ports[out_port], std::move(burst));
    }
  });
}

}  // namespace nnfv::compute
