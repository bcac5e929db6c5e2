/**
 * @file
 * NVMe-P2P (paper §IV-C): peer-to-peer DMA between the Morpheus-SSD
 * and the GPU.
 *
 * NVMe SSDs are block devices with a doorbell model — they expose no
 * device memory of their own, so the conventional both-sides-map-BARs
 * P2P recipe does not apply. Following Donard/NVMMU, NVMe-P2P instead
 * maps the *GPU's* device memory into a PCIe BAR window
 * (DirectGMA/GPUDirect) and lets the SSD's DMA engine target those bus
 * addresses with ordinary MREAD/MWRITE data pointers. The host
 * software stack still issues every command; the SSD actively pushes
 * or pulls the data, so no new file-system integrity issues arise.
 */

#ifndef MORPHEUS_CORE_NVME_P2P_HH
#define MORPHEUS_CORE_NVME_P2P_HH

#include "host/host_system.hh"

namespace morpheus::core {

/** Driver module that manages the GPU BAR window. */
class NvmeP2p
{
  public:
    explicit NvmeP2p(host::HostSystem &sys) : _sys(sys) {}

    ~NvmeP2p();

    /**
     * Program the GPU's device memory into the PCIe BAR (DirectGMA /
     * GPUDirect). Idempotent. @return the bus address of GPU device
     * address 0.
     */
    pcie::Addr mapGpuMemory();

    /** Tear the window down. */
    void unmapGpuMemory();

    bool mapped() const { return _mapped; }

    /** Bus address of GPU device address @p dev_addr; maps if needed. */
    pcie::Addr
    busAddrFor(std::uint64_t dev_addr)
    {
        return mapGpuMemory() + dev_addr;
    }

    /** Bytes that moved SSD->GPU without touching the host. */
    std::uint64_t p2pBytes() const { return _sys.fabric().p2pBytes(); }

  private:
    host::HostSystem &_sys;
    bool _mapped = false;
};

}  // namespace morpheus::core

#endif  // MORPHEUS_CORE_NVME_P2P_HH
