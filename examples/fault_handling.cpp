/**
 * @file
 * Robustness example: the Duet Adapter's protection mechanisms.
 *  1. TLB faults: an untrusted fine-grained accelerator touches an
 *     unmapped virtual page; the kernel services the interrupt via MMIOs.
 *  2. Parity exception: a corrupted eFPGA output deactivates every
 *     Memory Hub in the adapter while the Proxy Caches keep the system
 *     coherent; software clears the error and continues.
 *  3. Timeout: an unresponsive accelerator cannot halt the system — the
 *     Soft Register Interface returns bogus data after the timeout.
 */

#include <cstdio>

#include "accel/images.hh"
#include "mem/page_table.hh"
#include "system/system.hh"

using namespace duet;

int
main()
{
    std::printf("1) TLB fault -> kernel interrupt -> retry\n");
    {
        SystemConfig cfg;
        cfg.numCores = 1;
        cfg.numMemHubs = 1;
        System sys(cfg);
        AccelImage img;
        img.name = "reader";
        img.resources = FabricResources{100, 100, 0, 0};
        img.useTlb = true; // untrusted: virtual addressing
        img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo};
        img.start = [](FpgaContext &ctx) {
            spawn([](FpgaContext ctx) -> CoTask<void> {
                Addr va = co_await ctx.regs.pop(0);
                std::uint64_t v = co_await ctx.mem[0]->load(va);
                ctx.regs.push(1, v);
            }(ctx));
        };
        sys.installAccel(img);

        PageTable pt;
        pt.map(0x40, 0x80); // VPN 0x40 -> PPN 0x80
        sys.memory().write(0x80 * kPageBytes + 0x10, 8, 777);

        sys.core(0).setInterruptHandler(
            [&](Core &c, std::uint64_t cause) -> CoTask<void> {
                Addr vpn = cause & 0xffffffffffffull;
                std::printf("   kernel: TLB miss on VPN 0x%lx, filling\n",
                            vpn);
                auto e = pt.lookup(vpn);
                co_await c.mmioWrite(sys.ctrlAddr(ctrl_reg::kTlbSelect),
                                     cause >> 56);
                co_await c.mmioWrite(sys.ctrlAddr(ctrl_reg::kTlbVpn), vpn);
                co_await c.mmioWrite(sys.ctrlAddr(ctrl_reg::kTlbPpn),
                                     e->ppn);
            });
        sys.core(0).start([&sys](Core &c) -> CoTask<void> {
            co_await c.mmioWrite(sys.regAddr(0),
                                 0x40ull * kPageBytes + 0x10);
            std::uint64_t v = co_await c.mmioRead(sys.regAddr(1));
            std::printf("   accelerator read returned %lu (faults "
                        "serviced: %lu)\n",
                        v, sys.adapter().hub(0).tlbFaults.value());
        });
        sys.run();
    }

    std::printf("\n2) Parity exception: hubs deactivate, system survives\n");
    {
        SystemConfig cfg;
        cfg.numCores = 1;
        cfg.numMemHubs = 2;
        System sys(cfg);
        AccelImage img;
        img.name = "buggy";
        img.resources = FabricResources{100, 100, 0, 0};
        sys.installAccel(img);
        sys.adapter().injectParityError(0);
        sys.run();
        std::printf("   hub0 active=%d hub1 active=%d (error code %u)\n",
                    sys.adapter().hub(0).active(),
                    sys.adapter().hub(1).active(),
                    unsigned(sys.adapter().hub(0).errorCode()));
        std::uint64_t v = 0;
        sys.core(0).start([&](Core &c) -> CoTask<void> {
            co_await c.store(0x9000, 41);
            v = co_await c.load(0x9000) + 1; // coherence still works
            co_await c.mmioWrite(sys.ctrlAddr(ctrl_reg::kErrCode), 0);
        });
        sys.run();
        std::printf("   memory still coherent (41+1=%lu); error cleared, "
                    "hub0 active=%d\n",
                    v, sys.adapter().hub(0).active());
    }

    std::printf("\n3) Timeout: a hung accelerator returns bogus data\n");
    {
        SystemConfig cfg;
        cfg.numCores = 1;
        cfg.numMemHubs = 1;
        cfg.ctrl.timeoutCycles = 1000;
        System sys(cfg);
        AccelImage img;
        img.name = "hung";
        img.resources = FabricResources{100, 100, 0, 0};
        img.regLayout.kinds = {RegKind::Normal};
        img.start = [](FpgaContext &ctx) {
            ctx.regs.setReadHandler(
                0, [](FpgaRegFile::ReadReply) { /* never replies */ });
        };
        sys.installAccel(img);
        sys.core(0).start([&sys](Core &c) -> CoTask<void> {
            std::uint64_t v = co_await c.mmioRead(sys.regAddr(0));
            std::printf("   read returned 0x%lx after timeout "
                        "(deactivated=%d)\n",
                        v, sys.adapter().ctrl().deactivated());
        });
        sys.run();
    }
    return 0;
}
