//! A long-lived server holds file descriptors and thread handles for
//! live connections only. Its own test binary: the descriptor count is
//! the whole process's.

use pario_fs::{Volume, VolumeConfig};
use pario_net::{NetClient, NetConfig, NetServer, Transport};
use pario_server::{Server, ServerConfig};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Connection threads deregister as they exit, a moment after the
/// client's drop returns.
fn settle(net: &NetServer) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while net.live_connections() > 0 {
        assert!(std::time::Instant::now() < deadline, "connections linger");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn two_thousand_connections_leave_fds_and_the_registry_flat() {
    let volume = Volume::create_in_memory(VolumeConfig {
        devices: 2,
        device_blocks: 64,
        block_size: 256,
    })
    .unwrap();
    let net = NetServer::bind_tcp(
        "127.0.0.1:0",
        Server::new(volume, ServerConfig::default()),
        NetConfig::default(),
    )
    .unwrap();
    let addr = net.local_addr().unwrap().to_string();
    // A cycle is two connections: the TCP one the client shakes hands
    // on and leaves, and the lane it pings over. Both must be gone.
    let cycle = || {
        let client = NetClient::connect_tcp(&addr).unwrap();
        assert_eq!(client.transport(), Transport::Unix);
        client.ping().unwrap();
    };

    cycle(); // warm-up: whatever is opened once is open now
    settle(&net);
    let before = open_fds();
    for _ in 0..2000 {
        cycle();
    }
    settle(&net);
    assert_eq!(net.live_connections(), 0);
    assert_eq!(open_fds(), before, "descriptors leaked across connections");
}
